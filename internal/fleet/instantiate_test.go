package fleet_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/cq"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/service"
	"repro/internal/workload"
)

// sameUQ reports how got differs from want, field by field down to the bits
// of every weight ("" when it does not).
func sameUQ(got, want *cq.UQ) string {
	switch {
	case got.ID != want.ID || got.K != want.K || got.DrawState != want.DrawState ||
		!reflect.DeepEqual(got.Keywords, want.Keywords):
		return "header"
	case len(got.CQs) != len(want.CQs):
		return "CQ count"
	}
	for i, w := range want.CQs {
		g := got.CQs[i]
		switch {
		case g.ID != w.ID || g.UQID != w.UQID:
			return w.ID + " ids"
		case !reflect.DeepEqual(g.Atoms, w.Atoms):
			return w.ID + " atoms"
		case !reflect.DeepEqual(g.HeadVars, w.HeadVars):
			return w.ID + " head vars"
		case g.Model.AggKind != w.Model.AggKind || g.Model.Label != w.Model.Label ||
			math.Float64bits(g.Model.Static) != math.Float64bits(w.Model.Static) ||
			len(g.Model.Weights) != len(w.Model.Weights):
			return w.ID + " model"
		}
		for j, x := range w.Model.Weights {
			if math.Float64bits(g.Model.Weights[j]) != math.Float64bits(x) {
				return w.ID + " weights"
			}
		}
	}
	return ""
}

// TestShardExpansionMatchesFrontend: for every keyword set of the bio, GUS
// and Pfam suites and several users, a shard engine over a second instance
// of the workload re-instantiates, from the request frame alone, exactly the
// query the front desk expanded.
func TestShardExpansionMatchesFrontend(t *testing.T) {
	for _, name := range []string{"bio", "gus", "pfam"} {
		t.Run(name, func(t *testing.T) {
			front, err := workload.ByName(name, 1)
			if err != nil {
				t.Fatal(err)
			}
			shard, err := workload.ByName(name, 1)
			if err != nil {
				t.Fatal(err)
			}
			cfg := service.Config{Seed: 7}
			svc := service.New(shard, cfg)
			defer svc.Close() //nolint:errcheck
			exp := service.NewExpander(front, cfg)
			if len(front.Submissions) == 0 {
				t.Fatal("the suite has no searches")
			}
			// The users expand and re-instantiate concurrently: the first
			// calls race to build the shard's expansion cache.
			var wg sync.WaitGroup
			for _, user := range []string{"ada", "bo", "cy"} {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for _, s := range front.Submissions {
						if err := reinstantiate(exp, svc, user, s.UQ.Keywords); err != nil {
							t.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}

// reinstantiate expands keywords for user at the front desk and
// re-instantiates the query on the shard engine from its request frame.
func reinstantiate(exp *service.Expander, svc *service.Service, user string, keywords []string) error {
	uq, err := exp.Expand(user, keywords, 0)
	if err != nil {
		return err
	}
	r, err := fleet.DecodeRequest(fleet.AppendRequest(nil, fleet.RequestOf(uq)))
	if err != nil {
		return err
	}
	got, err := svc.Instantiate(r.ID, r.Keywords, r.K, r.DrawState)
	if err != nil {
		return fmt.Errorf("%s %v: %w", uq.ID, uq.Keywords, err)
	}
	if diff := sameUQ(got, uq); diff != "" {
		return fmt.Errorf("%s %v for %s: the shard's %s differ from the front desk's", uq.ID, uq.Keywords, user, diff)
	}
	if got.Digest() != r.Digest {
		return fmt.Errorf("%s %v: equal queries digest %#x and %#x", uq.ID, uq.Keywords, got.Digest(), r.Digest)
	}
	return nil
}

// TestShardRefusesForeignConfiguration: a shard that expands a search
// differently — over another workload, under another MaxCQs, or handed a
// tampered draw state or digest — refuses it with a non-retryable 409 that
// names the search, before admission. The front desk surfaces the refusal
// without retrying, failing over or marking the shard down.
func TestShardRefusesForeignConfiguration(t *testing.T) {
	keywords := []string{"metabolism", "protein"}
	shardOver := func(w *workload.Workload) (*httptest.Server, *service.Service) {
		svc := service.New(w, service.Config{Seed: 13, K: 10})
		ss := fleet.NewShardServer(svc)
		srv := httptest.NewServer(ss.Handler())
		t.Cleanup(func() { srv.Close(); ss.Close() })
		return srv, svc
	}
	refused := func(what string, err error, svc *service.Service) {
		t.Helper()
		var rpcErr *fleet.RPCError
		if !errors.As(err, &rpcErr) || rpcErr.Status != http.StatusConflict || rpcErr.Retryable {
			t.Fatalf("%s: got %v, want a non-retryable 409", what, err)
		}
		if !strings.Contains(rpcErr.Msg, "UQ") || !strings.Contains(rpcErr.Msg, keywords[0]) {
			t.Fatalf("%s: the refusal %q names neither the search nor its keywords", what, rpcErr.Msg)
		}
		if n := svc.Stats().Service.Requests; n != 0 {
			t.Fatalf("%s: a refused search reached admission (%d requests)", what, n)
		}
	}

	gus, err := workload.GUS(1, workload.GUSScaleDefault())
	if err != nil {
		t.Fatal(err)
	}
	capped := bioWorkload(t)
	capped.Gen.MaxCQs = 1
	for name, w := range map[string]*workload.Workload{"another workload": gus, "another MaxCQs": capped} {
		srv, svc := shardOver(w)
		fm := &metrics.Fleet{}
		fr := newTestFrontend(t, 13, []*httptest.Server{srv}, fleet.FrontendConfig{Metrics: fm})
		_, err := fr.Search(context.Background(), "ada", keywords, 10)
		refused(name, err, svc)
		if fm.HealthTrips.Value() != 0 || fm.RouteUnhealthy.Value() != 0 || fm.RPCRetries.Value() != 0 || fm.RPCCalls.Value() != 1 {
			t.Fatalf("%s: the front desk retried, failed over or marked the shard down: %+v", name, fm.Snapshot())
		}
		if _, err := fr.Search(context.Background(), "ada", keywords, 10); !errors.As(err, new(*fleet.RPCError)) {
			t.Fatalf("%s: the shard was taken out of rotation: %v", name, err)
		}
	}

	srv, svc := shardOver(bioWorkload(t))
	exp := service.NewExpander(bioWorkload(t), service.Config{Seed: 13, K: 10})
	fm := &metrics.Fleet{}
	c := fleet.NewClient(srv.URL, fleet.ClientConfig{Metrics: fm})
	uq, err := exp.Expand("ada", keywords, 10)
	if err != nil {
		t.Fatal(err)
	}
	drawn := *uq
	drawn.DrawState ^= 1 << 40
	_, err = c.Search(context.Background(), &drawn)
	refused("tampered draw state", err, svc)
	digested := *uq
	digested.CQs = append([]*cq.CQ{}, uq.CQs...)
	digested.CQs[0] = uq.CQs[0].Instance(uq.CQs[0].ID+"x", uq.ID, uq.CQs[0].Model)
	_, err = c.Search(context.Background(), &digested)
	refused("tampered digest", err, svc)
	if fm.RPCRetries.Value() != 0 || fm.CircuitOpens.Value() != 0 {
		t.Fatalf("a refusal was retried or opened the circuit: %+v", fm.Snapshot())
	}
	if _, err := c.Search(context.Background(), uq); err != nil {
		t.Fatalf("the untampered search: %v", err)
	}
}
