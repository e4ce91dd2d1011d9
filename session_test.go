package qsys

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/fleet"
	"repro/internal/service"
)

// TestSessionAnswersLikeTheServer poses each bundled suite (bio, GUS, Pfam)
// in order, every keyword set by three users in turn, to a session and to
// the one-engine fleet qsys-serve runs, each over its own workload instance
// under the same K and seed. Every search must expand into the same
// candidate networks, execute as many of them and return the same answers:
// rank, score bits, CQ id and the qualified identity of every tuple. After
// the run the session's pipeline must hold no finished merge.
func TestSessionAnswersLikeTheServer(t *testing.T) {
	const k, seed = 20, 7
	for _, tc := range []struct {
		name string
		load func() (*Workload, error)
	}{
		{"bio", Bio},
		{"gus", func() (*Workload, error) { return GUS(1) }},
		{"pfam", Pfam},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ws, err := tc.load()
			if err != nil {
				t.Fatal(err)
			}
			wf, err := tc.load()
			if err != nil {
				t.Fatal(err)
			}
			sys := NewSystem(ws, Config{K: k, Seed: seed})
			fr, err := fleet.NewLocal(wf, service.Config{K: k, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			defer fr.Close() //nolint:errcheck
			searches := 0
			for _, sub := range ws.Submissions {
				kws := sub.UQ.Keywords
				for u := 0; u < 3; u++ {
					user := fmt.Sprintf("user%d", u)
					res, err := sys.Search(user, kws, 0)
					if err != nil {
						t.Fatalf("%s, %s: session: %v", kws, user, err)
					}
					view, err := fr.Search(context.Background(), user, kws, 0)
					if err != nil {
						t.Fatalf("%s, %s: server: %v", kws, user, err)
					}
					if got, want := sessionRendering(res), serverRendering(view); got != want {
						t.Fatalf("%s, %s: the session answers\n%s\nthe server answers\n%s", kws, user, got, want)
					}
					searches++
				}
			}
			if n := len(sys.pipe.ATC.Merges()); n != 0 {
				t.Fatalf("after %d searches the session's pipeline holds %d finished merges, want none", searches, n)
			}
		})
	}
}

// sessionRendering and serverRendering print a search alike: id, candidate
// and executed networks, then per answer its rank, score bits, CQ id and
// tuple identities.
func sessionRendering(res *SearchResult) string {
	out := fmt.Sprintf("%s cns=%d executed=%d\n", res.ID, res.CandidateNetworks, res.ExecutedNetworks)
	for _, a := range res.Answers {
		ids := make([]string, len(a.Tuples))
		for i, tp := range a.Tuples {
			ids[i] = tp.QualifiedIdentity()
		}
		out += fmt.Sprintf("%d %x %s %v\n", a.Rank, math.Float64bits(a.Score), a.Query, ids)
	}
	return out
}

func serverRendering(v *fleet.ResultView) string {
	out := fmt.Sprintf("%s cns=%d executed=%d\n", v.ID, v.CandidateNetworks, v.ExecutedNetworks)
	for _, a := range v.Answers {
		out += fmt.Sprintf("%d %x %s %v\n", a.Rank, math.Float64bits(a.Score), a.Query, a.IDs)
	}
	return out
}
