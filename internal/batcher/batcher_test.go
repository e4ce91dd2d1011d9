package batcher

import (
	"errors"
	"testing"
	"time"

	"repro/internal/cq"
)

func sub(at time.Duration, id string) Submission {
	return Submission{At: at, UQ: &cq.UQ{ID: id}}
}

func TestSizeTriggeredBatches(t *testing.T) {
	b := &Batcher{Size: 2}
	batches, err := b.Plan([]Submission{
		sub(0, "a"), sub(time.Second, "b"), sub(2*time.Second, "c"),
		sub(3*time.Second, "d"), sub(4*time.Second, "e"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(batches) != 3 {
		t.Fatalf("batches = %d, want 3", len(batches))
	}
	if len(batches[0].Submissions) != 2 || batches[0].ReleasedAt != time.Second {
		t.Errorf("batch 0: %+v", batches[0])
	}
	if len(batches[2].Submissions) != 1 {
		t.Errorf("final partial batch size %d", len(batches[2].Submissions))
	}
	if got := batches[2].Submissions[0].UQ; got.ID != "e" {
		t.Errorf("final batch holds %s, want e", got.ID)
	}
}

func TestWindowTriggeredBatches(t *testing.T) {
	b := &Batcher{Size: 100, Window: 3 * time.Second}
	batches, err := b.Plan([]Submission{
		sub(0, "a"), sub(time.Second, "b"),
		sub(10*time.Second, "c"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(batches) != 2 {
		t.Fatalf("batches = %d, want 2", len(batches))
	}
	if batches[0].ReleasedAt != 3*time.Second {
		t.Errorf("window batch released at %v", batches[0].ReleasedAt)
	}
	if batches[1].Submissions[0].UQ.ID != "c" {
		t.Error("late arrival misgrouped")
	}
}

func TestPlanSortsArrivals(t *testing.T) {
	b := &Batcher{Size: 2}
	batches, err := b.Plan([]Submission{sub(5*time.Second, "late"), sub(0, "early")})
	if err != nil {
		t.Fatal(err)
	}
	if batches[0].Submissions[0].UQ.ID != "early" {
		t.Error("arrivals not sorted")
	}
}

func TestBatcherNeedsTrigger(t *testing.T) {
	// A batcher with neither trigger used to panic, which could kill a
	// serving process over a bad flag combination; it must now return a
	// configuration error.
	batches, err := (&Batcher{}).Plan([]Submission{sub(0, "a")})
	if !errors.Is(err, ErrNoTrigger) {
		t.Fatalf("err = %v, want ErrNoTrigger", err)
	}
	if batches != nil {
		t.Fatalf("batches = %v, want nil on configuration error", batches)
	}
}

func TestReleaseNeverBeforeLastMember(t *testing.T) {
	b := &Batcher{Size: 5, Window: 6 * time.Second}
	subs := []Submission{sub(0, "a"), sub(time.Second, "b"), sub(2*time.Second, "c")}
	batches, err := b.Plan(subs)
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range batches {
		for _, s := range batch.Submissions {
			if batch.ReleasedAt < s.At {
				t.Errorf("batch released at %v before member arrival %v", batch.ReleasedAt, s.At)
			}
		}
	}
}
