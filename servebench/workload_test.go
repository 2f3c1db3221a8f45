package main

import "testing"

// TestPayloadDeterminism: a job's payload is a pure function of (workload,
// seed, job index).
func TestPayloadDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("generates full-size references")
	}
	for _, name := range workloadNames {
		a, err := newWorkload(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, err := newWorkload(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		other, err := newWorkload(name, 8)
		if err != nil {
			t.Fatal(err)
		}
		for _, idx := range []int{setupJob, 0, 3} {
			pa, err := a.job(idx)
			if err != nil {
				t.Fatal(err)
			}
			pb, err := b.job(idx)
			if err != nil {
				t.Fatal(err)
			}
			po, err := other.job(idx)
			if err != nil {
				t.Fatal(err)
			}
			if payloadDigest(pa) != payloadDigest(pb) {
				t.Errorf("%s job %d: same seed, different payloads", name, idx)
			}
			if payloadDigest(pa) == payloadDigest(po) {
				t.Errorf("%s job %d: seeds 7 and 8 gave the same payload", name, idx)
			}
			if len(pa.truth) == 0 || len(pa.truth) != len(pb.truth) {
				t.Errorf("%s job %d: %d vs %d reads", name, idx, len(pa.truth), len(pb.truth))
			}
		}
		p0, _ := a.job(0)
		p1, _ := a.job(1)
		if payloadDigest(p0) == payloadDigest(p1) {
			t.Errorf("%s: jobs 0 and 1 share a payload", name)
		}
	}
}

func TestSetupJobSize(t *testing.T) {
	w, err := newWorkload("churn-gateway", 1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := w.job(setupJob)
	if err != nil {
		t.Fatal(err)
	}
	if p.reads() != setupReads {
		t.Errorf("set-up job has %d reads, want %d", p.reads(), setupReads)
	}
	if _, err := newWorkload("nope", 1); err == nil {
		t.Error("unknown workload accepted")
	}
}
