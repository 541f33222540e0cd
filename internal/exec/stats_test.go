package exec

import (
	"context"
	"reflect"
	"testing"
	"time"

	"pipetune/internal/metrics"
)

// TestStatsFrameRoundTrip pins the binary Stats frame codec: a populated
// snapshot (sketch buckets included) survives encode/decode exactly.
func TestStatsFrameRoundTrip(t *testing.T) {
	st := newWorkerStats()
	st.observeTrial(0.125, 3)
	st.observeTrial(1.5, 2)
	st.encodeError()
	st.decodeError()
	st.decodeError()
	want := st.series()

	wb := getWirebuf()
	defer putWirebuf(wb)
	encodeStats(wb, want)
	got, err := decodeStats(wb.b)
	if err != nil {
		t.Fatalf("decodeStats: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip diverged:\n got %+v\nwant %+v", got, want)
	}
	if _, err := decodeStats(wb.b[:len(wb.b)-1]); err == nil {
		t.Fatal("truncated stats frame must not decode")
	}
	if _, err := decodeStats([]byte{99}); err == nil {
		t.Fatal("unknown stats version must not decode")
	}
}

// sumCounterFamily totals a counter family's samples across label sets.
func sumCounterFamily(t *testing.T, reg *metrics.Registry, name string) uint64 {
	t.Helper()
	for _, f := range reg.Snapshot().Families {
		if f.Name == name {
			var n uint64
			for _, s := range f.Samples {
				n += uint64(s.Value)
			}
			return n
		}
	}
	return 0
}

// sumSummaryCount totals a summary family's observation counts.
func sumSummaryCount(t *testing.T, reg *metrics.Registry, name string) uint64 {
	t.Helper()
	for _, f := range reg.Snapshot().Families {
		if f.Name == name {
			var n uint64
			for _, s := range f.Samples {
				n += s.Count
			}
			return n
		}
	}
	return 0
}

// TestIngestWorkerSeriesDeltas drives the cumulative-snapshot diffing
// directly: repeated snapshots must fold in only their increments, a
// re-registered worker restarts from a zero baseline without double
// counting, and stale (regressed) snapshots are ignored.
func TestIngestWorkerSeriesDeltas(t *testing.T) {
	r := newTestRemote(t, nil)
	reg := r.MetricsRegistry()
	resp, err := r.Register(RegisterRequest{Name: "w1", Capacity: 1})
	if err != nil {
		t.Fatal(err)
	}

	snap := func(trials, epochs uint64, secs ...float64) WorkerSeries {
		d := metrics.NewDistribution()
		for _, s := range secs {
			d.Observe(s)
		}
		return WorkerSeries{Trials: trials, Epochs: epochs, TrialSeconds: d.Snapshot()}
	}

	if err := r.IngestWorkerSeries(resp.WorkerID, snap(2, 4, 0.1, 0.2)); err != nil {
		t.Fatal(err)
	}
	if err := r.IngestWorkerSeries(resp.WorkerID, snap(3, 6, 0.1, 0.2, 0.3)); err != nil {
		t.Fatal(err)
	}
	if got := sumCounterFamily(t, reg, "pipetune_worker_trials_total"); got != 3 {
		t.Fatalf("trials after two cumulative snapshots = %d, want 3", got)
	}
	if got := sumCounterFamily(t, reg, "pipetune_worker_epochs_total"); got != 6 {
		t.Fatalf("epochs = %d, want 6", got)
	}
	if got := sumSummaryCount(t, reg, "pipetune_worker_trial_seconds"); got != 3 {
		t.Fatalf("trial-seconds observations = %d, want 3", got)
	}

	// A regressed snapshot (e.g. duplicated delivery of an older beat)
	// must not subtract or re-add.
	if err := r.IngestWorkerSeries(resp.WorkerID, snap(1, 2, 0.1)); err != nil {
		t.Fatal(err)
	}
	if got := sumCounterFamily(t, reg, "pipetune_worker_trials_total"); got != 3 {
		t.Fatalf("trials after stale snapshot = %d, want 3", got)
	}

	// Re-registration: same name, fresh session, cumulative restart at
	// zero. The fleet aggregate must only grow by the new session's work.
	r.evictWorker(resp.WorkerID, "test")
	resp2, err := r.Register(RegisterRequest{Name: "w1", Capacity: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.IngestWorkerSeries(resp2.WorkerID, snap(2, 4, 0.5, 0.6)); err != nil {
		t.Fatal(err)
	}
	if got := sumCounterFamily(t, reg, "pipetune_worker_trials_total"); got != 5 {
		t.Fatalf("trials after re-registration = %d, want 3+2=5", got)
	}

	// Unknown workers are rejected.
	if err := r.IngestWorkerSeries("nope", snap(1, 1)); err == nil {
		t.Fatal("unknown worker must be rejected")
	}
}

// TestWorkerSeriesCrossWireParity runs a trial set over the stream and
// requires the heartbeat-shipped fleet aggregates to converge to what
// the local backend computes for the same trials: one trial-seconds
// observation per trial and every epoch record the results carry.
func TestWorkerSeriesCrossWireParity(t *testing.T) {
	want, werrs := NewLocal(smallTrainer()).Run(context.Background(), realTrials(smallTrainer(), 4), 2)
	var wantEpochs uint64
	for i, res := range want {
		if werrs[i] != nil {
			t.Fatalf("local trial %d: %v", i, werrs[i])
		}
		wantEpochs += uint64(len(res.Epochs))
	}

	r, _ := startFleet(t, 2, RemoteConfig{})
	if _, errs := r.Run(context.Background(), realTrials(smallTrainer(), 4), 0); errs[0] != nil || errs[1] != nil || errs[2] != nil || errs[3] != nil {
		t.Fatalf("stream run failed: %v", errs)
	}
	reg := r.MetricsRegistry()
	deadline := time.Now().Add(5 * time.Second)
	for {
		trials := sumCounterFamily(t, reg, "pipetune_worker_trials_total")
		epochs := sumCounterFamily(t, reg, "pipetune_worker_epochs_total")
		obs := sumSummaryCount(t, reg, "pipetune_worker_trial_seconds")
		if trials == 4 && obs == 4 && epochs == wantEpochs {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("aggregates never converged: trials %d obs %d epochs %d, want 4/4/%d", trials, obs, epochs, wantEpochs)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestWireTrafficCounters checks that running work over the stream lands
// rx/tx frame and byte counts under the binary wire label — and only
// that label.
func TestWireTrafficCounters(t *testing.T) {
	r, _ := startFleet(t, 1, RemoteConfig{})
	trials := realTrials(smallTrainer(), 2)
	if _, errs := r.Run(context.Background(), trials, 0); errs[0] != nil || errs[1] != nil {
		t.Fatalf("stream run failed: %v", errs)
	}
	var frames, bytes uint64
	for _, f := range r.MetricsRegistry().Snapshot().Families {
		if f.Name != "pipetune_exec_wire_frames_total" && f.Name != "pipetune_exec_wire_bytes_total" {
			continue
		}
		for _, s := range f.Samples {
			if s.Labels["wire"] != WireBinary {
				t.Fatalf("%s sample labelled wire=%q, want %q", f.Name, s.Labels["wire"], WireBinary)
			}
			if f.Name == "pipetune_exec_wire_frames_total" {
				frames += uint64(s.Value)
			} else {
				bytes += uint64(s.Value)
			}
		}
	}
	if frames == 0 || bytes == 0 {
		t.Fatalf("stream counted no traffic (frames=%d bytes=%d)", frames, bytes)
	}
}

// TestFleetStatusFromRegistry pins the satellite invariant that
// FleetStatus derives its trial counters from the metrics registry.
func TestFleetStatusFromRegistry(t *testing.T) {
	r, _ := startFleet(t, 1, RemoteConfig{})
	trials := realTrials(smallTrainer(), 2)
	if _, errs := r.Run(context.Background(), trials, 0); errs[0] != nil || errs[1] != nil {
		t.Fatalf("run failed: %v", errs)
	}
	fs := r.Fleet()
	reg := sumCounterFamily(t, r.MetricsRegistry(), "pipetune_exec_completed_trials_total")
	if uint64(fs.CompletedTrials) != reg || reg != 2 {
		t.Fatalf("FleetStatus.CompletedTrials=%d, registry=%d, want both 2", fs.CompletedTrials, reg)
	}
}
