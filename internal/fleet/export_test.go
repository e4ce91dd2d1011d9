package fleet

import (
	"bytes"
	"encoding/json"
)

// MaxFrameBytes exposes the body bound of the shard RPCs to the tests.
const MaxFrameBytes = maxFrameBytes

// ReadSearchResponse is the front-end's receive path (Client.Search reads
// and decodes every response through it), ReadRequest the shard's.
var (
	ReadSearchResponse = readSearchResponse
	ReadRequest        = readRequest
)

// DecodeRequest and DecodeSearchResponse parse one frame held in b through
// the receive paths above.
func DecodeRequest(b []byte) (*SearchRequest, error) {
	return readRequest(bytes.NewReader(b), int64(len(b)))
}

func DecodeSearchResponse(b []byte) (*ResultView, error) {
	v, _, err := readSearchResponse(bytes.NewReader(b), int64(len(b)))
	return v, err
}

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
