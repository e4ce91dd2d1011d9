package recovery

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzReplayJournal: replay never panics, and every query it reports in
// flight comes from an admit line before the first torn line, once, and was
// not marked done after its last admission there.
func FuzzReplayJournal(f *testing.F) {
	f.Add([]byte(`{"op":"a","id":"UQ1","kw":["protein"],"k":10}
{"op":"a","id":"UQ2","kw":["gene","membrane"],"k":5}
{"op":"d","id":"UQ1"}
`))
	f.Add([]byte("{\"op\":\"a\",\"id\":\"UQ1\"}\r\n\n{\"op\":\"a\",\"id\":\"UQ2\",\"k\":3}\n{\"op\":\"a\",\"id\":\"UQ3\",\"k\""))
	f.Add([]byte(`{"op":"a","id":"UQ1"}
{"op":"d","id":"UQ1"}
{"op":"a","id":"UQ1","k":7}
not json
{"op":"a","id":"UQ9"}`))
	path := filepath.Join(f.TempDir(), journalFile)
	f.Fuzz(func(t *testing.T, b []byte) {
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		got := replayJournal(path)

		// The intact prefix, read line by line the way bufio.ScanLines
		// splits: admits by id (every record an id was admitted with) and
		// each id's last operation.
		admits := map[string][]QueryRecord{}
		last := map[string]string{}
		for _, line := range bytes.Split(b, []byte("\n")) {
			line = bytes.TrimSuffix(line, []byte("\r"))
			if len(line) == 0 {
				continue
			}
			var e journalEntry
			if json.Unmarshal(line, &e) != nil {
				break
			}
			if e.Op == "a" {
				admits[e.ID] = append(admits[e.ID], QueryRecord{ID: e.ID, Keywords: e.Keywords, K: e.K})
			}
			if e.Op == "a" || e.Op == "d" {
				last[e.ID] = e.Op
			}
		}
		seen := map[string]bool{}
		for _, rec := range got {
			if seen[rec.ID] {
				t.Fatalf("%q reported in flight twice", rec.ID)
			}
			seen[rec.ID] = true
			if last[rec.ID] != "a" {
				t.Fatalf("%q reported in flight, but its last intact operation is %q", rec.ID, last[rec.ID])
			}
			found := false
			for _, a := range admits[rec.ID] {
				found = found || reflect.DeepEqual(a, rec)
			}
			if !found {
				t.Fatalf("reported %+v, which no intact admit line carries", rec)
			}
		}
	})
}

// FuzzLoadManifest: whatever generation 2's manifest holds, Load never
// panics and never errs, falls back to the intact generation 1 unless the
// manifest names its own generation, and installs only bytes from files
// named for the loaded generation in the store's directory — never from a
// path outside it, even one whose size and digest the manifest matches.
func FuzzLoadManifest(f *testing.F) {
	root := f.TempDir()
	dir := filepath.Join(root, "store")
	st, err := Open(dir)
	if err != nil {
		f.Fatal(err)
	}
	if _, err := st.Write(testExport(1)); err != nil {
		f.Fatal(err)
	}
	payload := []byte("gen2-segment-0-payload")
	if err := os.WriteFile(filepath.Join(dir, segmentFile(2, 0)), payload, 0o644); err != nil {
		f.Fatal(err)
	}
	secret := []byte("outside-the-store")
	if err := os.WriteFile(filepath.Join(root, "secret.seg"), secret, 0o644); err != nil {
		f.Fatal(err)
	}
	manifest := func(gen int, files ...string) []byte {
		m := Manifest{Generation: gen, Epoch: gen}
		for _, name := range files {
			data := payload
			switch name {
			case "../secret.seg":
				data = secret
			case segmentFile(1, 0):
				data = testExport(1).Segments[0].Data
			}
			sum := sha256.Sum256(data)
			m.Segments = append(m.Segments, SegmentMeta{File: name, Key: name, Bytes: len(data), SHA256: hex.EncodeToString(sum[:])})
		}
		b, err := json.Marshal(&m)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	f.Add(manifest(2, segmentFile(2, 0)))
	f.Add(manifest(2, "../secret.seg"))
	f.Add(manifest(2, segmentFile(1, 0)))
	f.Add(manifest(2, segmentFile(2, 0), segmentFile(2, 0)))
	f.Add(manifest(3, segmentFile(2, 0)))
	f.Add([]byte(`{"generation":2,`))

	files := map[int][][]byte{}
	for gen := 1; gen <= 2; gen++ {
		for i := 0; i < 3; i++ {
			if data, err := os.ReadFile(filepath.Join(dir, segmentFile(gen, i))); err == nil {
				files[gen] = append(files[gen], data)
			}
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if err := os.WriteFile(filepath.Join(dir, manifestName(2)), b, 0o644); err != nil {
			t.Fatal(err)
		}
		cp, err := st.Load()
		if err != nil || cp == nil {
			t.Fatalf("Load = (%+v, %v) with generation 1 intact", cp, err)
		}
		var man Manifest
		own := json.Unmarshal(b, &man) == nil && man.Generation == 2
		switch {
		case cp.Generation == 2 && !own:
			t.Fatal("loaded a manifest that does not name its own generation")
		case cp.Generation == 1 && (own || cp.Dropped != 0 || len(cp.Export.Segments) != 3):
			t.Fatalf("generation 1 loaded as %d segments, %d dropped (manifest 2 own: %v)", len(cp.Export.Segments), cp.Dropped, own)
		case cp.Generation != 1 && cp.Generation != 2:
			t.Fatalf("loaded generation %d", cp.Generation)
		}
		if cp.Generation == 2 && len(cp.Export.Segments)+cp.Dropped != len(man.Segments) {
			t.Fatalf("%d segments loaded and %d dropped of %d", len(cp.Export.Segments), cp.Dropped, len(man.Segments))
		}
		for _, seg := range cp.Export.Segments {
			ok := false
			for _, data := range files[cp.Generation] {
				ok = ok || bytes.Equal(seg.Data, data)
			}
			if !ok {
				t.Fatalf("generation %d installed %q, which is no segment file of that generation", cp.Generation, seg.Data)
			}
		}
	})
}
