package state

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/tuple"
)

// TestDecodeSegmentBoundsCounts: a segment that declares more elements than
// its remaining bytes can hold fails before it allocates for them. The rows
// case is 15 bytes declaring 2^24 log rows, once a 512 MB allocation.
func TestDecodeSegmentBoundsCounts(t *testing.T) {
	head := func(counts ...uint64) []byte {
		b := []byte(segMagic)
		for _, n := range counts {
			b = binary.AppendUvarint(b, n)
		}
		return append(b, 0) // one more byte, so a count is never simply truncated
	}
	const huge = 1 << 24
	_, resolve := spillFixture(t)
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"key bytes", head(huge)},
		{"relations", head(0, 0, 0, huge)},
		{"rows", head(0, 0, 0, 0, huge)},
		{"parts", head(0, 0, 0, 0, 1, 0, huge)},
		{"modules", head(0, 0, 0, 0, 0, huge)},
		{"coverage", head(0, 0, 0, 0, 0, 1, 0, huge)},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DecodeSegment(tc.data, resolve)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: a %d-byte segment declaring %d decoded", tc.name, len(tc.data), huge)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
			t.Fatalf("%s: decoding %d bytes allocated %d bytes before failing: %v", tc.name, len(tc.data), n, err)
		}
		if tc.name == "rows" && len(tc.data) != 15 {
			t.Fatalf("rows case is %d bytes, want 15", len(tc.data))
		}
	}
}

// anyResolver resolves every reference with a sequence number under 2^16 to
// a tuple of its own, the same pointer each time, whatever the relation: real
// segments and mutations of them decode without the relations they name.
func anyResolver() TupleResolver {
	schemas := map[string]*tuple.Schema{}
	tuples := map[string]*tuple.Tuple{}
	return func(rel string, seq int64) (*tuple.Tuple, error) {
		if seq < 0 || seq >= 1<<16 {
			return nil, fmt.Errorf("no %s[%d]", rel, seq)
		}
		key := fmt.Sprintf("%s[%d]", rel, seq)
		if tp, ok := tuples[key]; ok {
			return tp, nil
		}
		s, ok := schemas[rel]
		if !ok {
			s = tuple.NewSchema(rel, tuple.Column{Name: "id", Type: tuple.KindInt, Key: true})
			schemas[rel] = s
		}
		tp := tuple.New(s, tuple.Int(seq)).WithSeq(seq)
		tuples[key] = tp
		return tp, nil
	}
}

// FuzzDecodeSegment: any byte string either fails to decode or decodes to a
// snapshot that re-encodes and decodes to an equal one. The seed corpus
// under testdata/fuzz holds EncodeSegment of real checkpointed nodes, one
// stream and one join node each from a bio and a GUS engine after three
// suite searches.
func FuzzDecodeSegment(f *testing.F) {
	rels, _ := spillFixture(f)
	snap := &NodeSnapshot{Key: "join::R,S", Kind: 2, StreamPos: 3,
		LogRows: []*tuple.Row{tuple.NewRow(rels["R"][1], rels["S"][2])}, LogEpochs: []int{-1},
		Modules: []ModuleSnapshot{{ProducerKey: "stream::R", Coverage: []int{0}, Probe: true,
			Parts: [][]*tuple.Tuple{{rels["R"][0], nil}}, Epochs: []int{4}}}}
	data, _, err := EncodeSegment(snap)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	// A part naming relation 2^63+1 of a one-relation table must fail, not
	// wrap to a negative index.
	f.Add(append(binary.AppendUvarint(append([]byte(segMagic), 0, 0, 0, 1, 1, 'R', 1, 0, 1), 1<<63+1), 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		resolve := anyResolver()
		snap, err := DecodeSegment(data, resolve)
		if err != nil {
			return
		}
		again, _, err := EncodeSegment(snap)
		if err != nil {
			t.Fatalf("a decoded snapshot does not encode: %v", err)
		}
		back, err := DecodeSegment(again, resolve)
		if err != nil {
			t.Fatalf("a re-encoded snapshot does not decode: %v", err)
		}
		if !reflect.DeepEqual(snap, back) {
			t.Fatalf("round trip changed the snapshot:\n%+v\n%+v", snap, back)
		}
	})
}
