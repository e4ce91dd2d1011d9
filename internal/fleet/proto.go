// Package fleet is the serving tier: one stateless front desk (Frontend)
// over N engines, which live in this process (NewLocal, LocalBackend) or in
// shard processes reached over a compact HTTP RPC surface (Client,
// ShardServer).
//
// The decomposition follows the determinism contract the digest-parity gate
// pins. The front desk owns everything whose outcome depends on the *order
// of the whole request stream* — candidate-network expansion with per-user
// scoring coefficients, UQ id assignment, and placement (the affinity
// Placer) — and hands each expanded user query to a backend. A local
// backend runs the query itself. A shard process is sent only its
// configuration (SearchRequest: id, keywords, k, the user's generator state
// before the draw and a digest of the queries) and re-instantiates the
// query from its own expansion cache, refusing it if the digests differ.
// Each backend is exactly one engine (plan graph, ATC, query state
// manager), seeded by service.Config.ShardIDOffset, so slot i is the same
// code over the same seed whether NewLocal built it in this process or
// qsys-shard runs it. Both serving modes run the same Frontend; what the
// parity gate still proves is that the HTTP hop, the re-instantiation and
// the wire codecs change no answer.
//
// RPC surface. A search is one binary frame each way (frame.go): a
// SearchRequest in, a ResultView out, floats as their bits. Everything
// else, and every error envelope, is JSON:
//
//	POST /rpc/search     SearchRequest frame → ResultView frame (409: the
//	                     shard expands it differently)
//	GET  /rpc/stats      service.Stats
//	GET  /rpc/health     HealthView
//	GET  /rpc/recovered  RecoveredView
//	POST /rpc/drain      {} → HealthView (admissions stopped, in-flight done)
package fleet

import (
	"fmt"
	"hash"
	"io"
	"strings"

	"repro/internal/cq"
	"repro/internal/recovery"
	"repro/internal/scoring"
	"repro/internal/service"
	"repro/internal/tuple"
)

// SearchRequest is what the front desk ships a shard for one search: the
// arrival's configuration, not its plan. A shard rebuilds the query from its
// own expansion cache (service.Service.Instantiate) and admits it only if
// the rebuilt query's cq.UQ.Digest equals Digest.
type SearchRequest struct {
	ID       string
	Keywords []string
	K        int
	// DrawState is the user's coefficient generator state before the
	// arrival's draw (cq.UQ.DrawState).
	DrawState uint64
	// Digest is the cq.UQ.Digest of the front desk's expansion.
	Digest uint64
}

// RequestOf is the search request of an expanded user query.
func RequestOf(uq *cq.UQ) *SearchRequest {
	return &SearchRequest{ID: uq.ID, Keywords: uq.Keywords, K: uq.K, DrawState: uq.DrawState, Digest: uq.Digest()}
}

// WireValue is the JSON form of a tuple.Value. Kind strings mirror
// tuple.Kind.String().
type WireValue struct {
	Kind  string  `json:"k"`
	Int   int64   `json:"i,omitempty"`
	Float float64 `json:"f,omitempty"`
	Str   string  `json:"s,omitempty"`
}

func encodeValue(v tuple.Value) WireValue {
	switch v.Kind() {
	case tuple.KindInt:
		return WireValue{Kind: "int", Int: v.AsInt()}
	case tuple.KindFloat:
		return WireValue{Kind: "float", Float: v.AsFloat()}
	case tuple.KindString:
		return WireValue{Kind: "string", Str: v.AsString()}
	default:
		return WireValue{Kind: "null"}
	}
}

func decodeValue(w WireValue) (tuple.Value, error) {
	switch w.Kind {
	case "int":
		return tuple.Int(w.Int), nil
	case "float":
		return tuple.Float(w.Float), nil
	case "string":
		return tuple.String(w.Str), nil
	case "null", "":
		return tuple.Null(), nil
	default:
		return tuple.Value{}, fmt.Errorf("fleet: unknown value kind %q", w.Kind)
	}
}

// WireTerm is one atom argument: a variable id, or a constant when Const is
// present.
type WireTerm struct {
	Var   int        `json:"v"`
	Const *WireValue `json:"c,omitempty"`
}

// WireAtom is one relational atom of a conjunctive query.
type WireAtom struct {
	Rel  string     `json:"rel"`
	DB   string     `json:"db"`
	Args []WireTerm `json:"args"`
}

// WireModel carries a scoring model. Agg is the raw scoring.Agg ordinal.
type WireModel struct {
	Agg     uint8     `json:"agg"`
	Static  float64   `json:"static"`
	Weights []float64 `json:"weights"`
	Label   string    `json:"label"`
}

// WireCQ is one candidate network of a user query.
type WireCQ struct {
	ID       string     `json:"id"`
	UQID     string     `json:"uq_id"`
	Atoms    []WireAtom `json:"atoms"`
	Model    WireModel  `json:"model"`
	HeadVars []int      `json:"head_vars,omitempty"`
}

// WireUQ is the JSON form of a fully expanded user query. No RPC carries it:
// a search ships a SearchRequest.
type WireUQ struct {
	ID       string   `json:"id"`
	Keywords []string `json:"keywords"`
	K        int      `json:"k"`
	CQs      []WireCQ `json:"cqs"`
}

// EncodeUQ converts an expanded user query to its JSON form.
func EncodeUQ(uq *cq.UQ) *WireUQ {
	w := &WireUQ{ID: uq.ID, Keywords: uq.Keywords, K: uq.K}
	for _, q := range uq.CQs {
		wq := WireCQ{ID: q.ID, UQID: q.UQID, HeadVars: q.HeadVars}
		for _, a := range q.Atoms {
			wa := WireAtom{Rel: a.Rel, DB: a.DB}
			for _, t := range a.Args {
				wt := WireTerm{Var: t.Var}
				if t.IsConst() {
					v := encodeValue(t.Const)
					wt.Const = &v
				}
				wa.Args = append(wa.Args, wt)
			}
			wq.Atoms = append(wq.Atoms, wa)
		}
		if q.Model != nil {
			wq.Model = WireModel{
				Agg:     uint8(q.Model.AggKind),
				Static:  q.Model.Static,
				Weights: q.Model.Weights,
				Label:   q.Model.Label,
			}
		}
		w.CQs = append(w.CQs, wq)
	}
	return w
}

// DecodeUQ reconstructs the user query from its JSON form and validates
// every member CQ, refusing a structurally broken one.
func DecodeUQ(w *WireUQ) (*cq.UQ, error) {
	if w.ID == "" {
		return nil, fmt.Errorf("fleet: user query without id")
	}
	uq := &cq.UQ{ID: w.ID, Keywords: w.Keywords, K: w.K}
	for _, wq := range w.CQs {
		q := &cq.CQ{ID: wq.ID, UQID: wq.UQID, HeadVars: wq.HeadVars}
		for _, wa := range wq.Atoms {
			a := &cq.Atom{Rel: wa.Rel, DB: wa.DB}
			for _, wt := range wa.Args {
				if wt.Const != nil {
					v, err := decodeValue(*wt.Const)
					if err != nil {
						return nil, fmt.Errorf("fleet: %s: %w", wq.ID, err)
					}
					a.Args = append(a.Args, cq.C(v))
				} else {
					a.Args = append(a.Args, cq.V(wt.Var))
				}
			}
			q.Atoms = append(q.Atoms, a)
		}
		q.Model = &scoring.Model{
			AggKind: scoring.Agg(wq.Model.Agg),
			Static:  wq.Model.Static,
			Weights: wq.Model.Weights,
			Label:   wq.Model.Label,
		}
		if err := q.Validate(); err != nil {
			return nil, fmt.Errorf("fleet: wire query rejected: %w", err)
		}
		uq.CQs = append(uq.CQs, q)
	}
	return uq, nil
}

// AnswerView is one ranked answer with its base tuples reduced to their
// qualified identities ("Relation:Identity") — exactly the bytes the result
// digest is built from, so a view digests identically to the tuples it
// replaced.
type AnswerView struct {
	Rank  int      `json:"rank"`
	Score float64  `json:"score"`
	Query string   `json:"query"`
	IDs   []string `json:"ids"`
}

// ResultView is a completed search in wire form.
type ResultView struct {
	ID                string       `json:"id"`
	Keywords          []string     `json:"keywords"`
	Answers           []AnswerView `json:"answers"`
	CandidateNetworks int          `json:"candidateNetworks"`
	ExecutedNetworks  int          `json:"executedNetworks"`
	Shard             int          `json:"shard"`
	BatchSize         int          `json:"batchSize"`
	EngineLatencyNS   int64        `json:"engineLatencyNS"`
	WallLatencyNS     int64        `json:"wallLatencyNS"`
}

// ViewOf flattens a service result for the wire. Every answer's ids share
// one backing array.
func ViewOf(res *service.Result) *ResultView {
	v := &ResultView{
		ID:                res.ID,
		Keywords:          res.Keywords,
		CandidateNetworks: res.CandidateNetworks,
		ExecutedNetworks:  res.ExecutedNetworks,
		Shard:             res.Shard,
		BatchSize:         res.BatchSize,
		EngineLatencyNS:   int64(res.EngineLatency),
		WallLatencyNS:     int64(res.WallLatency),
	}
	n := 0
	for _, a := range res.Answers {
		n += len(a.Tuples)
	}
	ids := make([]string, n)
	if len(res.Answers) > 0 {
		v.Answers = make([]AnswerView, len(res.Answers))
	}
	for i, a := range res.Answers {
		av := AnswerView{Rank: a.Rank, Score: a.Score, Query: a.Query}
		if len(a.Tuples) > 0 {
			av.IDs, ids = ids[:len(a.Tuples):len(a.Tuples)], ids[len(a.Tuples):]
			for j, t := range a.Tuples {
				av.IDs[j] = t.QualifiedIdentity()
			}
		}
		v.Answers[i] = av
	}
	return v
}

// DigestView writes the view into a result digest. This function owns the
// format: "id|[kw kw]|n\n" then per answer "rank|score|query|" followed by
// each tuple's qualified identity and '&'. A view is built the same way from
// an in-process result and from a wire response, so a multi-process run
// digests identically to the single-process run it must match.
func DigestView(h hash.Hash, v *ResultView) {
	fmt.Fprintf(h, "%s|%v|%d\n", v.ID, v.Keywords, len(v.Answers))
	for _, a := range v.Answers {
		fmt.Fprintf(h, "%d|%.9g|%s|", a.Rank, a.Score, a.Query)
		for _, id := range a.IDs {
			io.WriteString(h, id)
			io.WriteString(h, "&")
		}
		io.WriteString(h, "\n")
	}
}

// DigestAnswers folds only the view's ranked answers — rank, score,
// candidate network with the UQ prefix stripped ("UQ7.CQ2" → "CQ2"), base
// tuple identities. Two runs that issued the same logical queries compare
// equal even when their UQ numbering diverged (a run that shed some arrivals
// still numbers every expansion), which makes this the digest of the
// degradation contract: an overloaded run must answer each query it serves
// byte-identically to the unloaded run.
func DigestAnswers(h hash.Hash, v *ResultView) {
	for _, a := range v.Answers {
		q := a.Query
		if i := strings.Index(q, "."); i >= 0 {
			q = q[i+1:]
		}
		fmt.Fprintf(h, "%d|%.9g|%s|", a.Rank, a.Score, q)
		for _, id := range a.IDs {
			io.WriteString(h, id)
			io.WriteString(h, "&")
		}
		io.WriteString(h, "\n")
	}
}

// HealthView is a shard's self-reported health. State is the lifecycle
// phase: "ready" (a warm restart is ready as soon as it listens: the engine
// imported its checkpoint when it was built) or "draining". CheckpointGen
// is the newest durable checkpoint generation (0 = none / recovery
// disabled); RecoveredAborts counts the queries the admission journal proved
// in flight at the last crash; JournalErrors counts failed writes to that
// journal since start.
type HealthView struct {
	Healthy         bool   `json:"healthy"`
	Draining        bool   `json:"draining"`
	InFlight        int    `json:"in_flight"`
	State           string `json:"state,omitempty"`
	CheckpointGen   int    `json:"checkpoint_gen,omitempty"`
	RecoveredAborts int    `json:"recovered_aborts,omitempty"`
	JournalErrors   int64  `json:"journal_errors,omitempty"`
}

// RecoveredView lists the queries a restarted shard's admission journal
// proved were in flight when the previous process crashed. The front-end's
// re-dispatch path consults it to confirm a failed search was a crash
// casualty before resubmitting it elsewhere.
type RecoveredView struct {
	Count   int                    `json:"count"`
	Queries []recovery.QueryRecord `json:"queries,omitempty"`
}

// wireError is the RPC error envelope. Retryable marks rejections that
// happened strictly before admission (a draining shard turning a search
// away, an overload shed at the rate limiter or the bounded queue), which a
// client may safely resubmit; anything after admission must not be retried —
// the request may have executed. Reason carries the admission shed reason
// (admission.Reason* constants) so the front-end can tell saturation from
// failure: a shed shard is busy, not down. RetryAfterMS is the shed's
// Retry-After hint in milliseconds.
type wireError struct {
	Error        string `json:"error"`
	Retryable    bool   `json:"retryable,omitempty"`
	Reason       string `json:"reason,omitempty"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
}
