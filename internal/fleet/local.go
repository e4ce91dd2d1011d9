package fleet

import (
	"context"

	"repro/internal/cq"
	"repro/internal/service"
	"repro/internal/state"
	"repro/internal/workload"
)

// Backend is one shard slot as the front-end sees it: an engine that answers
// expanded user queries and can hand topic state off. Client speaks to a
// shard process over HTTP; LocalBackend embeds the engine in-process.
type Backend interface {
	// Search executes an expanded user query.
	Search(ctx context.Context, uq *cq.UQ) (*ResultView, error)
	// Health probes the shard.
	Health(ctx context.Context) (HealthView, error)
	// Recovered lists the queries the shard's admission journal proved in
	// flight at its last crash (empty when recovery is disabled).
	Recovered(ctx context.Context) (RecoveredView, error)
	// Stats snapshots the shard's serving and execution counters.
	Stats(ctx context.Context) (*service.Stats, error)
	// Export serializes and discards the topic's idle state on the shard.
	Export(ctx context.Context, keywords []string) (*state.TopicExport, error)
	// Import stages a migrated export behind the shard's consistency gate.
	Import(ctx context.Context, exp *state.TopicExport) (ImportCounts, error)
	// Drain stops the shard's admissions and returns its full resident
	// handoff.
	Drain(ctx context.Context) (*state.TopicExport, error)
	// Close releases the backend: a client's connections, or a local
	// backend's engine. It does not stop a shard process.
	Close() error
}

// NewLocal builds cfg.Shards engines over one workload in this process —
// engine i is service.New with Shards 1 and ShardIDOffset i, exactly what
// qsys-shard runs for slot i — behind a Frontend of LocalBackends. The front
// desk expands, rate-limits, places, migrates and aggregates for them.
// Closing the Frontend closes the engines.
func NewLocal(w *workload.Workload, cfg service.Config) (*Frontend, error) {
	if _, err := service.ParseRouter(cfg.Router); err != nil {
		return nil, err
	}
	backends := make([]Backend, max(cfg.Shards, 1))
	for i := range backends {
		ecfg := cfg
		ecfg.Shards, ecfg.ShardIDOffset = 1, i
		backends[i] = &LocalBackend{Svc: service.New(w, ecfg)}
	}
	return NewFrontend(w, FrontendConfig{Service: cfg}, backends)
}

// LocalBackend adapts an in-process engine to the Backend interface.
type LocalBackend struct {
	Svc *service.Service
}

// Search executes the query on the wrapped engine.
func (b *LocalBackend) Search(ctx context.Context, uq *cq.UQ) (*ResultView, error) {
	res, err := b.Svc.SearchUQ(ctx, uq)
	if err != nil {
		return nil, err
	}
	return ViewOf(res), nil
}

// Health reports the wrapped engine healthy with its own in-flight count; an
// in-process backend has no transport to fail, and a closed engine surfaces
// through Search.
func (b *LocalBackend) Health(ctx context.Context) (HealthView, error) {
	return HealthView{Healthy: true, InFlight: b.Svc.InFlight()}, nil
}

// Recovered reports the wrapped engine's journaled crash aborts (empty
// unless it was built over a checkpoint directory).
func (b *LocalBackend) Recovered(ctx context.Context) (RecoveredView, error) {
	recs := b.Svc.RecoveredAborts()
	return RecoveredView{Count: len(recs), Queries: recs}, nil
}

// Stats snapshots the wrapped engine.
func (b *LocalBackend) Stats(ctx context.Context) (*service.Stats, error) {
	st := b.Svc.Stats()
	return &st, nil
}

// Export hands the topic's idle state off the wrapped engine.
func (b *LocalBackend) Export(ctx context.Context, keywords []string) (*state.TopicExport, error) {
	return b.Svc.ExportTopic(keywords)
}

// Import stages the export on the wrapped engine.
func (b *LocalBackend) Import(ctx context.Context, exp *state.TopicExport) (ImportCounts, error) {
	installed, dropped, rows, err := b.Svc.ImportTopic(exp)
	return ImportCounts{Installed: installed, Dropped: dropped, Rows: rows}, err
}

// Drain exports everything the wrapped engine retains.
func (b *LocalBackend) Drain(ctx context.Context) (*state.TopicExport, error) {
	return b.Svc.ExportAll()
}

// Close shuts the wrapped engine down and returns its state-teardown error.
func (b *LocalBackend) Close() error { return b.Svc.Close() }
