package serve

import (
	"fmt"

	"repro/internal/registry"
	"repro/internal/schema"
	"repro/internal/snapshot"
	"repro/internal/workload"
)

// Snapshot captures the engine's durable state under the given pool key.
// queries are the raw product specs the engine was registered with (the
// engine itself holds parsed products; the specs round-trip the workload
// deterministically and are what a restarted process re-parses).
//
// The snapshot holds NO raw data. Its one vector is x̂, the budget-carrying
// state, which is differentially private by post-processing.
func (e *Engine) Snapshot(key string, queries []string) *snapshot.Snapshot {
	return &snapshot.Snapshot{
		Key:         key,
		StrategyKey: e.key,
		Eps:         e.eps,
		Delta:       e.delta,
		Seed:        e.seed,
		RootMSE:     e.rootMSE,
		Domain:      e.w.Domain.AttrSizes(),
		Queries:     queries,
		Record:      &registry.Record{Strategy: e.strategy, Err: e.errF, Operator: e.operator},
		Xhat:        e.xhat,
	}
}

// Restore rebuilds a serving engine from a decoded snapshot WITHOUT
// touching private data: no optimizer run, no measurement, no noise draw —
// the recovered engine answers byte-identically to the one that wrote the
// snapshot because it serves the very same x̂ bits: the persisted,
// budget-carrying state.
//
// The codec already proved structural integrity (magic, CRC, bounds);
// Restore owns the semantic validation the codec cannot do: the queries
// must parse over the domain, the strategy must fit the workload, and x̂
// must cover the domain. A snapshot failing any of these is rejected with
// an error — the store quarantines it; nothing ever "heals" a snapshot by
// recomputing, since the recompute would be a second measurement.
func Restore(sn *snapshot.Snapshot, workers int) (*Engine, error) {
	if err := sn.Validate(); err != nil {
		return nil, fmt.Errorf("serve: snapshot: %w", err)
	}
	products, err := workload.ParseProducts(sn.Queries, sn.Domain)
	if err != nil {
		return nil, fmt.Errorf("serve: snapshot queries: %w", err)
	}
	w, err := workload.New(schema.Sizes(sn.Domain...), products...)
	if err != nil {
		return nil, fmt.Errorf("serve: snapshot workload: %w", err)
	}
	if err := strategyMatchesWorkload(sn.Record.Strategy, w); err != nil {
		return nil, fmt.Errorf("serve: snapshot strategy does not fit its workload: %w", err)
	}
	if len(sn.Xhat) != w.Domain.Size() {
		return nil, fmt.Errorf("serve: snapshot estimate has %d values, domain has %d cells", len(sn.Xhat), w.Domain.Size())
	}
	return &Engine{
		w:         w,
		strategy:  sn.Record.Strategy,
		operator:  sn.Record.Operator,
		errF:      sn.Record.Err,
		xhat:      sn.Xhat,
		workers:   workers,
		fromCache: true, // the strategy came from durable state, not a fresh optimization
		key:       sn.StrategyKey,
		rootMSE:   sn.RootMSE,
		eps:       sn.Eps,
		delta:     sn.Delta,
		seed:      sn.Seed,
	}, nil
}
