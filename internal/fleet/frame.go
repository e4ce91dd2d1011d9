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
//	word    = 8 bytes little endian
//	float64 = its IEEE 754 bits, as a word
//
// A request payload is a SearchRequest, a response payload a ResultView,
// field by field in declaration order (appendRequest, appendResponse).
// Floats travel as their bits, so every score arrives exactly as it left,
// -0, ±Inf, NaN and subnormals included.
//
// Decoding accepts only the canonical encoding: a varint in its shortest
// form, a known version, no bytes past the payload. So a frame the decoders
// accept re-encodes to the same bytes. Every count and string length is
// checked against the bytes that remain, at the least size one element
// encodes to, before anything is allocated: a frame of n bytes allocates
// O(n) whatever its length prefixes claim.
const (
	// The version bytes. 0x01 was a request carrying the expanded plan; a
	// shard now refuses it by its version.
	searchRequest  byte = 0x03
	searchResponse byte = 0x02

	frameHeader = 5
	// maxFrameBytes bounds a frame (and any RPC body) a process will read.
	maxFrameBytes = 16 << 20

	frameContentType = "application/x-qsys-frame"
)

// Minimum encoded sizes of the repeated elements: the bound a count is
// checked against.
const (
	minString = 1             // length
	minAnswer = 1 + 8 + 1 + 1 // rank, score, query, ids
)

var errFrameTooLarge = fmt.Errorf("fleet: frame over %d bytes", maxFrameBytes)

// AppendRequest appends the request frame of r to dst.
func AppendRequest(dst []byte, r *SearchRequest) []byte {
	dst, start := beginFrame(dst, searchRequest)
	return endFrame(appendRequest(dst, r), start)
}

// DecodeRequest parses a request frame. Its strings share one copy of the
// payload. It checks the frame, not the query: the shard's re-instantiation
// and digest comparison check that.
func DecodeRequest(b []byte) (*SearchRequest, error) {
	r, err := openFrame(b, searchRequest)
	if err != nil {
		return nil, err
	}
	q := r.request()
	if err := r.close(); err != nil {
		return nil, err
	}
	return q, nil
}

// AppendSearchResponse appends the response frame of v to dst.
func AppendSearchResponse(dst []byte, v *ResultView) []byte {
	dst, start := beginFrame(dst, searchResponse)
	return endFrame(appendResponse(dst, v), start)
}

// DecodeSearchResponse parses a response frame. The view's strings share
// one copy of the payload.
func DecodeSearchResponse(b []byte) (*ResultView, error) {
	r, err := openFrame(b, searchResponse)
	if err != nil {
		return nil, err
	}
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

func appendRequest(b []byte, r *SearchRequest) []byte {
	b = appendString(b, r.ID)
	b = appendStrings(b, r.Keywords)
	b = binary.AppendVarint(b, int64(r.K))
	b = binary.LittleEndian.AppendUint64(b, r.DrawState)
	return binary.LittleEndian.AppendUint64(b, r.Digest)
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
	s   string // b as one string, which every decoded string shares
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
	return &frameReader{b: b[frameHeader:], s: string(b[frameHeader:])}, nil
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

func (r *frameReader) word() uint64 {
	if r.err != nil {
		return 0
	}
	if r.left() < 8 {
		r.fail("truncated word")
		return 0
	}
	x := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return x
}

func (r *frameReader) float() float64 { return math.Float64frombits(r.word()) }

func (r *frameReader) str() string {
	n := r.count(1)
	if r.err != nil || n == 0 {
		return ""
	}
	s := r.s[r.off : r.off+n]
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

func (r *frameReader) request() *SearchRequest {
	return &SearchRequest{ID: r.str(), Keywords: r.strs(), K: r.int(), DrawState: r.word(), Digest: r.word()}
}

func (r *frameReader) response() *ResultView {
	v := &ResultView{ID: r.str(), Keywords: r.strs()}
	if n := r.count(minAnswer); n > 0 {
		v.Answers = make([]AnswerView, n)
	}
	// The answers' ids share backing arrays: one sized for every answer to
	// carry as many ids as the first (bounded by the bytes left), another
	// only when an answer outgrows what is left of it.
	var ids []string
	for i := range v.Answers {
		a := &v.Answers[i]
		a.Rank, a.Score, a.Query = r.int(), r.float(), r.str()
		n := r.count(minString)
		if n == 0 {
			continue
		}
		if cap(ids)-len(ids) < n {
			// At least n: count checked n against the bytes left.
			ids = make([]string, 0, min(n*(len(v.Answers)-i), r.left()/minString))
		}
		a.IDs = ids[len(ids) : len(ids)+n : len(ids)+n]
		ids = ids[:len(ids)+n]
		for j := range a.IDs {
			a.IDs[j] = r.str()
		}
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
