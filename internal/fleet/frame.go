package fleet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// The /rpc/search hop carries one binary frame each way:
//
//	frame   = version byte | payload length (uint32, little endian) | payload
//	string  = uvarint length | bytes
//	count   = uvarint
//	int     = zigzag varint
//	float64 = its IEEE 754 bits, 8 bytes little endian
//
// A request payload is a WireUQ, a response payload a ResultView, field by
// field in declaration order (the field lists are in appendRequest and
// appendResponse). Floats travel as their bits, so every weight, constant and
// score arrives exactly as it left, -0, ±Inf, NaN and subnormals included.
//
// Decoding accepts only the canonical encoding: a varint in its shortest
// form, a known version and value kind, no bytes past the payload. So a
// frame the decoders accept re-encodes to the same bytes. Every count and
// string length is checked against the bytes that remain, at the least
// size one element encodes to, before anything is allocated: a frame of n
// bytes allocates O(n) whatever its length prefixes claim.
const (
	searchRequestV1  byte = 0x01
	searchResponseV1 byte = 0x02

	frameHeader = 5
	// maxFrameBytes bounds a frame (and any RPC body) a process will read.
	maxFrameBytes = 16 << 20

	frameContentType = "application/x-qsys-frame"
)

// Value kinds of a term. termVar marks a variable; the others a constant.
const (
	termVar byte = iota
	termNull
	termInt
	termFloat
	termString
)

// Minimum encoded sizes of the repeated elements: the bound a count is
// checked against.
const (
	minString = 1                         // length
	minCQ     = 2 + 1 + 1 + 8 + 1 + 1 + 1 // ids, atoms, agg, static, weights, label, head vars
	minAtom   = 3                         // rel, db, args
	minTerm   = 2                         // var, kind
	minFloat  = 8
	minInt    = 1
	minAnswer = 1 + 8 + 1 + 1 // rank, score, query, ids
)

var errFrameTooLarge = fmt.Errorf("fleet: frame over %d bytes", maxFrameBytes)

// AppendSearchRequest appends the request frame of w to dst.
func AppendSearchRequest(dst []byte, w *WireUQ) []byte {
	dst, start := beginFrame(dst, searchRequestV1)
	return endFrame(appendRequest(dst, w), start)
}

// DecodeSearchRequest parses a request frame. It checks the frame, not the
// query: DecodeUQ validates what it carries.
func DecodeSearchRequest(b []byte) (*WireUQ, error) {
	r, err := openFrame(b, searchRequestV1)
	if err != nil {
		return nil, err
	}
	w := r.request()
	if err := r.close(); err != nil {
		return nil, err
	}
	return w, nil
}

// AppendSearchResponse appends the response frame of v to dst.
func AppendSearchResponse(dst []byte, v *ResultView) []byte {
	dst, start := beginFrame(dst, searchResponseV1)
	return endFrame(appendResponse(dst, v), start)
}

// DecodeSearchResponse parses a response frame. The view's strings share
// one copy of the payload.
func DecodeSearchResponse(b []byte) (*ResultView, error) {
	r, err := openFrame(b, searchResponseV1)
	if err != nil {
		return nil, err
	}
	r.s = string(r.b)
	v := r.response()
	if err := r.close(); err != nil {
		return nil, err
	}
	return v, nil
}

func beginFrame(dst []byte, version byte) ([]byte, int) {
	return append(dst, version, 0, 0, 0, 0), len(dst)
}

func endFrame(dst []byte, start int) []byte {
	binary.LittleEndian.PutUint32(dst[start+1:], uint32(len(dst)-start-frameHeader))
	return dst
}

func appendRequest(b []byte, w *WireUQ) []byte {
	b = appendString(b, w.ID)
	b = appendStrings(b, w.Keywords)
	b = binary.AppendVarint(b, int64(w.K))
	b = binary.AppendUvarint(b, uint64(len(w.CQs)))
	for i := range w.CQs {
		q := &w.CQs[i]
		b = appendString(b, q.ID)
		b = appendString(b, q.UQID)
		b = binary.AppendUvarint(b, uint64(len(q.Atoms)))
		for _, a := range q.Atoms {
			b = appendString(b, a.Rel)
			b = appendString(b, a.DB)
			b = binary.AppendUvarint(b, uint64(len(a.Args)))
			for _, t := range a.Args {
				b = binary.AppendVarint(b, int64(t.Var))
				b = appendConst(b, t.Const)
			}
		}
		b = append(b, q.Model.Agg)
		b = appendFloat(b, q.Model.Static)
		b = binary.AppendUvarint(b, uint64(len(q.Model.Weights)))
		for _, x := range q.Model.Weights {
			b = appendFloat(b, x)
		}
		b = appendString(b, q.Model.Label)
		b = binary.AppendUvarint(b, uint64(len(q.HeadVars)))
		for _, v := range q.HeadVars {
			b = binary.AppendVarint(b, int64(v))
		}
	}
	return b
}

// appendConst writes a term's value kind and payload. A kind the wire does
// not name ("null", "" or unknown) travels as null.
func appendConst(b []byte, c *WireValue) []byte {
	switch {
	case c == nil:
		return append(b, termVar)
	case c.Kind == "int":
		return binary.AppendVarint(append(b, termInt), c.Int)
	case c.Kind == "float":
		return appendFloat(append(b, termFloat), c.Float)
	case c.Kind == "string":
		return appendString(append(b, termString), c.Str)
	default:
		return append(b, termNull)
	}
}

func appendResponse(b []byte, v *ResultView) []byte {
	b = appendString(b, v.ID)
	b = appendStrings(b, v.Keywords)
	b = binary.AppendUvarint(b, uint64(len(v.Answers)))
	for i := range v.Answers {
		a := &v.Answers[i]
		b = binary.AppendVarint(b, int64(a.Rank))
		b = appendFloat(b, a.Score)
		b = appendString(b, a.Query)
		b = appendStrings(b, a.IDs)
	}
	for _, n := range [...]int64{
		int64(v.CandidateNetworks), int64(v.ExecutedNetworks), int64(v.Shard),
		int64(v.BatchSize), v.EngineLatencyNS, v.WallLatencyNS,
	} {
		b = binary.AppendVarint(b, n)
	}
	return b
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func appendStrings(b []byte, ss []string) []byte {
	b = binary.AppendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = appendString(b, s)
	}
	return b
}

func appendFloat(b []byte, x float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
}

// frameReader walks one payload. The first error sticks: every later read
// returns a zero value, so a decoder reads straight through and checks once.
type frameReader struct {
	b   []byte
	s   string // b as one string, when decoded strings may share it
	off int
	err error
}

func openFrame(b []byte, version byte) (*frameReader, error) {
	if len(b) == 0 {
		return nil, errors.New("fleet: empty frame")
	}
	if b[0] != version {
		return nil, fmt.Errorf("fleet: frame version %#02x, want %#02x", b[0], version)
	}
	if len(b) < frameHeader {
		return nil, fmt.Errorf("fleet: frame header truncated at %d bytes", len(b))
	}
	n := binary.LittleEndian.Uint32(b[1:frameHeader])
	if got := len(b) - frameHeader; int64(n) != int64(got) {
		return nil, fmt.Errorf("fleet: frame declares %d payload bytes, carries %d", n, got)
	}
	return &frameReader{b: b[frameHeader:]}, nil
}

// close reports the first error, or bytes left over after the last field.
func (r *frameReader) close() error {
	if r.err == nil && r.off != len(r.b) {
		r.fail("%d bytes after the last field", len(r.b)-r.off)
	}
	return r.err
}

func (r *frameReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("fleet: bad frame at byte %d: %s", frameHeader+r.off, fmt.Sprintf(format, args...))
	}
}

func (r *frameReader) left() int { return len(r.b) - r.off }

func (r *frameReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	switch {
	case n == 0:
		r.fail("truncated varint")
		return 0
	case n < 0:
		r.fail("varint overflows 64 bits")
		return 0
	case n > 1 && r.b[r.off+n-1] == 0:
		r.fail("varint not in shortest form")
		return 0
	}
	r.off += n
	return v
}

// int64 reads a zigzag varint.
func (r *frameReader) int64() int64 {
	u := r.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// int reads a zigzag varint that must fit an int.
func (r *frameReader) int() int {
	v := r.int64()
	if int64(int(v)) != v {
		r.fail("integer %d overflows int", v)
		return 0
	}
	return int(v)
}

// count reads an element count, refusing one whose elements could not fit
// in the bytes that remain at min bytes each.
func (r *frameReader) count(min int) int {
	n := r.uvarint()
	if r.err == nil && n > uint64(r.left()/min) {
		r.fail("count %d exceeds the %d bytes left", n, r.left())
		return 0
	}
	return int(n)
}

func (r *frameReader) byte1() byte {
	if r.err != nil {
		return 0
	}
	if r.left() < 1 {
		r.fail("truncated")
		return 0
	}
	c := r.b[r.off]
	r.off++
	return c
}

func (r *frameReader) float() float64 {
	if r.err != nil {
		return 0
	}
	if r.left() < 8 {
		r.fail("truncated float")
		return 0
	}
	x := math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.off:]))
	r.off += 8
	return x
}

func (r *frameReader) str() string {
	n := r.count(1)
	if r.err != nil || n == 0 {
		return ""
	}
	var s string
	if r.s != "" {
		s = r.s[r.off : r.off+n]
	} else {
		s = string(r.b[r.off : r.off+n])
	}
	r.off += n
	return s
}

func (r *frameReader) strs() []string {
	n := r.count(minString)
	if n == 0 {
		return nil
	}
	ss := make([]string, n)
	for i := range ss {
		ss[i] = r.str()
	}
	return ss
}

func (r *frameReader) request() *WireUQ {
	w := &WireUQ{ID: r.str(), Keywords: r.strs(), K: r.int()}
	if n := r.count(minCQ); n > 0 {
		w.CQs = make([]WireCQ, n)
	}
	for i := range w.CQs {
		q := &w.CQs[i]
		q.ID, q.UQID = r.str(), r.str()
		if n := r.count(minAtom); n > 0 {
			q.Atoms = make([]WireAtom, n)
		}
		for j := range q.Atoms {
			a := &q.Atoms[j]
			a.Rel, a.DB = r.str(), r.str()
			if n := r.count(minTerm); n > 0 {
				a.Args = make([]WireTerm, n)
			}
			for k := range a.Args {
				a.Args[k] = WireTerm{Var: r.int(), Const: r.constant()}
			}
		}
		q.Model.Agg = r.byte1()
		q.Model.Static = r.float()
		if n := r.count(minFloat); n > 0 {
			q.Model.Weights = make([]float64, n)
		}
		for k := range q.Model.Weights {
			q.Model.Weights[k] = r.float()
		}
		q.Model.Label = r.str()
		if n := r.count(minInt); n > 0 {
			q.HeadVars = make([]int, n)
		}
		for k := range q.HeadVars {
			q.HeadVars[k] = r.int()
		}
	}
	return w
}

func (r *frameReader) constant() *WireValue {
	switch kind := r.byte1(); kind {
	case termVar:
		return nil
	case termNull:
		return &WireValue{Kind: "null"}
	case termInt:
		return &WireValue{Kind: "int", Int: r.int64()}
	case termFloat:
		return &WireValue{Kind: "float", Float: r.float()}
	case termString:
		return &WireValue{Kind: "string", Str: r.str()}
	default:
		r.fail("unknown value kind %d", kind)
		return nil
	}
}

func (r *frameReader) response() *ResultView {
	v := &ResultView{ID: r.str(), Keywords: r.strs()}
	if n := r.count(minAnswer); n > 0 {
		v.Answers = make([]AnswerView, n)
	}
	for i := range v.Answers {
		v.Answers[i] = AnswerView{Rank: r.int(), Score: r.float(), Query: r.str(), IDs: r.strs()}
	}
	v.CandidateNetworks, v.ExecutedNetworks, v.Shard, v.BatchSize = r.int(), r.int(), r.int(), r.int()
	v.EngineLatencyNS, v.WallLatencyNS = r.int64(), r.int64()
	return v
}

// readBody reads an RPC body of declared length n (-1 when unknown), refusing
// one over maxFrameBytes.
func readBody(body io.Reader, n int64) ([]byte, error) {
	if n > maxFrameBytes {
		return nil, errFrameTooLarge
	}
	if n >= 0 {
		b := make([]byte, n)
		if _, err := io.ReadFull(body, b); err != nil {
			return nil, err
		}
		return b, nil
	}
	b, err := io.ReadAll(io.LimitReader(body, maxFrameBytes+1))
	if err == nil && len(b) > maxFrameBytes {
		err = errFrameTooLarge
	}
	return b, err
}
