package fleet

import "encoding/json"

// MaxFrameBytes exposes the body bound of the shard RPCs to the tests.
const MaxFrameBytes = maxFrameBytes

// AppendSearchRequest and DecodeSearchRequest carry a WireUQ as JSON, the
// form the benchmark's codec pass times, so the EncodeUQ / DecodeUQ tests
// keep their round trip. No RPC speaks it: a shard refuses the body by its
// first byte.
func AppendSearchRequest(dst []byte, w *WireUQ) []byte {
	b, err := json.Marshal(w)
	if err != nil {
		panic(err)
	}
	return append(dst, b...)
}

func DecodeSearchRequest(b []byte) (*WireUQ, error) {
	var w WireUQ
	if err := json.Unmarshal(b, &w); err != nil {
		return nil, err
	}
	return &w, nil
}
