// Package batcher implements the query batcher of §3: incoming keyword
// queries (already expanded into conjunctive queries) collect over a small
// time interval and are released to the optimizer as a batch. The experiments
// use batches of size 5 (§7.1) with arrivals spread over ≤6-second delays;
// Figure 9 compares batch size 1 (SINGLE-OPT) against 5 (BATCH-OPT).
package batcher

import (
	"errors"
	"sort"
	"time"

	"repro/internal/cq"
)

// ErrNoTrigger reports a Batcher with neither a size nor a window trigger:
// such a batcher would collect submissions forever and release nothing.
var ErrNoTrigger = errors.New("batcher: need a size or window trigger")

// Submission is one user query with its arrival time.
type Submission struct {
	At time.Duration
	UQ *cq.UQ
}

// Batch is a group of user queries released together. ReleasedAt is when the
// batcher hands the group to the optimizer: the moment the size limit fills,
// or the window since the first member expires.
type Batch struct {
	ReleasedAt  time.Duration
	Submissions []Submission
}

// Batcher groups submissions.
type Batcher struct {
	// Size releases a batch as soon as this many queries collect (0 = no
	// size trigger).
	Size int
	// Window releases a batch this long after its first member arrives
	// (0 = no time trigger; requires Size > 0).
	Window time.Duration
}

// Plan groups a known set of submissions (the offline form used by the
// experiment harness — arrival times are part of the workload). A batcher
// with neither trigger returns ErrNoTrigger: a bad flag combination must
// surface as a configuration error, not kill the serving process.
func (b *Batcher) Plan(subs []Submission) ([]Batch, error) {
	if b.Size <= 0 && b.Window <= 0 {
		return nil, ErrNoTrigger
	}
	sorted := append([]Submission(nil), subs...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].At < sorted[j].At })
	var out []Batch
	var cur []Submission
	var deadline time.Duration
	flush := func(at time.Duration) {
		if len(cur) == 0 {
			return
		}
		out = append(out, Batch{ReleasedAt: at, Submissions: cur})
		cur = nil
	}
	for _, s := range sorted {
		if len(cur) > 0 && b.Window > 0 && s.At > deadline {
			flush(deadline)
		}
		if len(cur) == 0 {
			deadline = s.At + b.Window
		}
		cur = append(cur, s)
		if b.Size > 0 && len(cur) >= b.Size {
			flush(s.At)
		}
	}
	if len(cur) > 0 {
		at := cur[len(cur)-1].At
		if b.Window > 0 && deadline > at {
			at = deadline
		}
		flush(at)
	}
	return out, nil
}
