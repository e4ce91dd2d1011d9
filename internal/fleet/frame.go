package fleet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"sync"

	"repro/internal/service"
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
// field by field in declaration order. Floats travel as their bits, so every
// score arrives exactly as it left, -0, ±Inf, NaN and subnormals included.
//
// What is built where. The front-end appends the request (AppendRequest);
// the shard reads the body into one string and decodes over it
// (readRequest). The shard appends the response straight from the finished
// merge (AppendResult): each answer's ids are its tuples' cached qualified
// identities, so no ResultView is built on the shard. The front-end reads
// the response body into one string, grown to its Content-Length, and
// decodes the ResultView over it (readSearchResponse): every string in the
// view, ids included, is a slice of that one copy. AppendSearchResponse
// writes the same bytes from a view; the two encoders share the field order
// through appendResponseHead, appendAnswerHead and appendResponseTail.
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
	dst = appendString(dst, r.ID)
	dst = appendStrings(dst, r.Keywords)
	dst = binary.AppendVarint(dst, int64(r.K))
	dst = binary.LittleEndian.AppendUint64(dst, r.DrawState)
	return endFrame(binary.LittleEndian.AppendUint64(dst, r.Digest), start)
}

// readRequest reads a request frame of declared length n (-1 when unknown)
// and parses it. Its strings share the one copy of the body it read. It
// checks the frame, not the query: the shard's re-instantiation and digest
// comparison check that.
func readRequest(body io.Reader, n int64) (*SearchRequest, error) {
	s, err := readBody(body, n)
	if err != nil {
		return nil, err
	}
	r, err := openFrame(s, searchRequest)
	if err != nil {
		return nil, err
	}
	q := &SearchRequest{ID: r.str(), Keywords: r.strs(), K: r.int(), DrawState: r.word(), Digest: r.word()}
	if err := r.close(); err != nil {
		return nil, err
	}
	return q, nil
}

// AppendSearchResponse appends the response frame of v to dst.
func AppendSearchResponse(dst []byte, v *ResultView) []byte {
	dst, start := beginFrame(dst, searchResponse)
	dst = appendResponseHead(dst, v.ID, v.Keywords, len(v.Answers))
	for i := range v.Answers {
		a := &v.Answers[i]
		dst = appendAnswerHead(dst, a.Rank, a.Score, a.Query, len(a.IDs))
		for _, id := range a.IDs {
			dst = appendString(dst, id)
		}
	}
	dst = appendResponseTail(dst, v.CandidateNetworks, v.ExecutedNetworks, v.Shard, v.BatchSize, v.EngineLatencyNS, v.WallLatencyNS)
	return endFrame(dst, start)
}

// AppendResult appends the response frame of ViewOf(res) to dst without
// building the view: an answer's ids are its tuples' cached qualified
// identities. Into a buffer with room for the frame it allocates nothing.
func AppendResult(dst []byte, res *service.Result) []byte {
	dst, start := beginFrame(dst, searchResponse)
	dst = appendResponseHead(dst, res.ID, res.Keywords, len(res.Answers))
	for i := range res.Answers {
		a := &res.Answers[i]
		dst = appendAnswerHead(dst, a.Rank, a.Score, a.Query, len(a.Tuples))
		for _, t := range a.Tuples {
			dst = appendString(dst, t.QualifiedIdentity())
		}
	}
	dst = appendResponseTail(dst, res.CandidateNetworks, res.ExecutedNetworks, res.Shard, res.BatchSize, int64(res.EngineLatency), int64(res.WallLatency))
	return endFrame(dst, start)
}

// readSearchResponse reads a response frame of declared length n (-1 when
// unknown) and parses it: the front-end's whole receive path. The view's
// strings share the one copy of the body it read. It also returns how many
// bytes it read.
func readSearchResponse(body io.Reader, n int64) (*ResultView, int, error) {
	s, err := readBody(body, n)
	if err != nil {
		return nil, 0, fmt.Errorf("fleet: read search response: %w", err)
	}
	r, err := openFrame(s, searchResponse)
	if err != nil {
		return nil, len(s), err
	}
	v := r.response()
	if err := r.close(); err != nil {
		return nil, len(s), err
	}
	return v, len(s), nil
}

func beginFrame(dst []byte, version byte) ([]byte, int) {
	return append(dst, version, 0, 0, 0, 0), len(dst)
}

func endFrame(dst []byte, start int) []byte {
	binary.LittleEndian.PutUint32(dst[start+1:], uint32(len(dst)-start-frameHeader))
	return dst
}

// appendResponseHead, appendAnswerHead (followed by the answer's ids, each
// an appendString) and appendResponseTail are a response payload in field
// order.
func appendResponseHead(b []byte, id string, keywords []string, answers int) []byte {
	b = appendString(b, id)
	b = appendStrings(b, keywords)
	return binary.AppendUvarint(b, uint64(answers))
}

func appendAnswerHead(b []byte, rank int, score float64, query string, ids int) []byte {
	b = binary.AppendVarint(b, int64(rank))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(score))
	b = appendString(b, query)
	return binary.AppendUvarint(b, uint64(ids))
}

func appendResponseTail(b []byte, candidates, executed, shard, batch int, engineNS, wallNS int64) []byte {
	for _, n := range [...]int64{int64(candidates), int64(executed), int64(shard), int64(batch), engineNS, wallNS} {
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

// frameReader walks one payload, held as a string that every decoded string
// shares. The first error sticks: every later read returns a zero value, so
// a decoder reads straight through and checks once.
type frameReader struct {
	s   string
	off int
	err error
}

func openFrame(s string, version byte) (frameReader, error) {
	if len(s) == 0 {
		return frameReader{}, errors.New("fleet: empty frame")
	}
	if s[0] != version {
		return frameReader{}, fmt.Errorf("fleet: frame version %#02x, want %#02x", s[0], version)
	}
	if len(s) < frameHeader {
		return frameReader{}, fmt.Errorf("fleet: frame header truncated at %d bytes", len(s))
	}
	n := uint32(s[1]) | uint32(s[2])<<8 | uint32(s[3])<<16 | uint32(s[4])<<24
	if got := len(s) - frameHeader; int64(n) != int64(got) {
		return frameReader{}, fmt.Errorf("fleet: frame declares %d payload bytes, carries %d", n, got)
	}
	return frameReader{s: s[frameHeader:]}, nil
}

// close reports the first error, or bytes left over after the last field.
func (r *frameReader) close() error {
	if r.err == nil && r.off != len(r.s) {
		r.fail("%d bytes after the last field", len(r.s)-r.off)
	}
	return r.err
}

func (r *frameReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("fleet: bad frame at byte %d: %s", frameHeader+r.off, fmt.Sprintf(format, args...))
	}
}

func (r *frameReader) left() int { return len(r.s) - r.off }

// uvarint reads an unsigned varint as binary.Uvarint would, refusing one
// that is truncated, overflows 64 bits or is longer than it needs to be.
func (r *frameReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	var v uint64
	for i := 0; ; i++ {
		if r.off+i == len(r.s) {
			r.fail("truncated varint")
			return 0
		}
		c := r.s[r.off+i]
		if i == binary.MaxVarintLen64-1 && c > 1 {
			r.fail("varint overflows 64 bits")
			return 0
		}
		if c < 0x80 {
			if i > 0 && c == 0 {
				r.fail("varint not in shortest form")
				return 0
			}
			r.off += i + 1
			return v | uint64(c)<<(7*i)
		}
		v |= uint64(c&0x7f) << (7 * i)
	}
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
	b := r.s[r.off : r.off+8]
	r.off += 8
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
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

// readBody reads an RPC body of declared length n (-1 when unknown) into one
// string, refusing one over maxFrameBytes. A known length is one allocation,
// the string grown to it; the body passes through a pooled read buffer.
func readBody(body io.Reader, n int64) (string, error) {
	if n > maxFrameBytes {
		return "", errFrameTooLarge
	}
	limit := n
	if n < 0 {
		limit = maxFrameBytes + 1
	}
	var sb strings.Builder
	sb.Grow(int(max(n, 0)))
	buf := readBuffers.Get().(*[]byte)
	defer readBuffers.Put(buf)
	for int64(sb.Len()) < limit {
		m, err := body.Read((*buf)[:min(int64(len(*buf)), limit-int64(sb.Len()))])
		sb.Write((*buf)[:m])
		if err == io.EOF {
			break
		}
		if err != nil {
			return "", err
		}
	}
	switch {
	case int64(sb.Len()) < n:
		return "", io.ErrUnexpectedEOF
	case sb.Len() > maxFrameBytes:
		return "", errFrameTooLarge
	}
	return sb.String(), nil
}

// readBuffers holds the buffers readBody reads through. They are small: a
// search response is a few KB, and a larger body takes more reads.
var readBuffers = sync.Pool{New: func() any { b := make([]byte, 2<<10); return &b }}
