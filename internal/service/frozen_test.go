package service_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/fleet"
	"repro/internal/service"
)

// TestFrozenServingAnswers pins what the serving path answers: digests and
// counts recorded once and written down here, so a change to expansion,
// placement, the engine or the stats merge that moves an answer or a source
// read fails here, not only when two configurations disagree.
//
//   - Each bundled suite (bio, GUS, Pfam) is posed in order, every query by
//     three users in turn, through one engine under a zero Config.
//   - overlapTopicRun, on two engines, under each router.
func TestFrozenServingAnswers(t *testing.T) {
	suites := map[string]struct {
		digest string
		stream int64
	}{
		"bio":  {"2a748deddbe1c0e37f935e9ff68e1b27ad8f63c63d60a1da2f2b79e7e9df0c8a", 15411},
		"gus":  {"16d4b3f56e35558a15a4a2fc1bccd76bd693953c13573ebaa682515840aab50c", 13184},
		"pfam": {"6d4d690adddd2ae1833b30a96ce702cb6e14c352f3c52f75ba71b34c8a587c4b", 54968},
	}
	for _, tc := range expandWorkloads {
		t.Run(tc.name, func(t *testing.T) {
			w, err := tc.load()
			if err != nil {
				t.Fatal(err)
			}
			fr := newLocal(t, w, service.Config{})
			defer fr.Close() //nolint:errcheck
			h := sha256.New()
			for _, sub := range w.Submissions {
				for u := 0; u < 3; u++ {
					view, err := fr.Search(context.Background(), fmt.Sprintf("user%d", u), sub.UQ.Keywords, 0)
					if err != nil {
						t.Fatalf("%s, user%d: %v", sub.UQ.Keywords, u, err)
					}
					fleet.DigestView(h, view)
				}
			}
			want := suites[tc.name]
			if got := hex.EncodeToString(h.Sum(nil)); got != want.digest {
				t.Errorf("answer digest %s, frozen %s", got, want.digest)
			}
			if got := fr.Stats(context.Background()).Work.StreamTuples; got != want.stream {
				t.Errorf("stream tuples %d, frozen %d", got, want.stream)
			}
		})
	}
	t.Run("routers", func(t *testing.T) {
		if testing.Short() {
			t.Skip("two sequential runs of the GUS suite x 3 variants")
		}
		const digest = "070254fd903836b43f4d2105feea6987feba7333066bf4fe93beee578f7a692f"
		for _, tc := range []struct {
			mode           string
			stream, misses int64
		}{
			{service.RouterHash, 15147, 4},
			{service.RouterAffinity, 13475, 0},
		} {
			got, st := overlapTopicRun(t, tc.mode)
			if got != digest {
				t.Errorf("%s: answer digest %s, frozen %s", tc.mode, got, digest)
			}
			if st.Work.StreamTuples != tc.stream || st.Router.SharingMisses != tc.misses {
				t.Errorf("%s: %d stream tuples, %d sharing misses; frozen %d, %d",
					tc.mode, st.Work.StreamTuples, st.Router.SharingMisses, tc.stream, tc.misses)
			}
		}
	})
}
