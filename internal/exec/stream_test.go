package exec

import (
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"pipetune/internal/params"
	"pipetune/internal/trainer"
	"pipetune/internal/workload"
)

// TestStreamFleetBitIdentical is the binary-wire twin of the JSON
// agent's bit-identity test: real trial bodies through the hijacked
// stream — handshake, batched grants, epoch frames, directive relays,
// delta-encoded commits — must reproduce the local backend exactly,
// including a mid-trial system switch by the observer.
func TestStreamFleetBitIdentical(t *testing.T) {
	r, _ := startFleet(t, 2, RemoteConfig{Wire: WireBinary})

	tr := smallTrainer()
	trials := realTrials(tr, 4)
	var obsMu sync.Mutex
	var remoteSeen []trainer.EpochStats
	switched := params.SysConfig{Cores: 16, MemoryGB: 32}
	mkObserver := func(sink *[]trainer.EpochStats) trainer.EpochObserver {
		return trainer.ObserverFunc(func(_ uint64, _ workload.Workload, _ params.Hyper, s trainer.EpochStats) *params.SysConfig {
			obsMu.Lock()
			*sink = append(*sink, s)
			obsMu.Unlock()
			if s.Epoch == 1 {
				return &switched
			}
			return nil
		})
	}
	trials[1].Observer = mkObserver(&remoteSeen)

	results, errs := r.Run(context.Background(), trials, 0)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("stream trial %d: %v", i, err)
		}
	}

	var localSeen []trainer.EpochStats
	localTrials := realTrials(smallTrainer(), 4)
	localTrials[1].Observer = mkObserver(&localSeen)
	want, werrs := NewLocal(smallTrainer()).Run(context.Background(), localTrials, 2)
	for i, err := range werrs {
		if err != nil {
			t.Fatalf("local trial %d: %v", i, err)
		}
	}

	for i := range trials {
		if !reflect.DeepEqual(results[i], want[i]) {
			t.Fatalf("stream trial %d diverges from local backend", i)
		}
	}
	if results[1].FinalSys != switched {
		t.Fatalf("observer switch lost over the stream: FinalSys %v, want %v", results[1].FinalSys, switched)
	}
	if !reflect.DeepEqual(remoteSeen, localSeen) {
		t.Fatalf("observer saw different epochs over the stream: remote %d, local %d", len(remoteSeen), len(localSeen))
	}
	fs := r.Fleet()
	if fs.CompletedTrials != 4 {
		t.Fatalf("fleet completed %d trials, want 4", fs.CompletedTrials)
	}
	if fs.Wire != WireBinary {
		t.Fatalf("fleet wire = %q, want %q", fs.Wire, WireBinary)
	}
}

// TestCrossWireCatalogParity sweeps the full Table 3 catalog across both
// wires: for every workload, the JSON fleet, the binary fleet and the
// local backend must produce byte-identical results (compared through
// the same JSON serialisation JobResults use).
func TestCrossWireCatalogParity(t *testing.T) {
	if testing.Short() {
		t.Skip("catalog parity runs full trial compute; CI races it in the execution-plane step")
	}
	trialsFor := func(tr *trainer.Runner) []Trial {
		cat := workload.Catalog()
		h := params.DefaultHyper()
		h.Epochs = 1
		out := make([]Trial, len(cat))
		for i, w := range cat {
			out[i] = Trial{
				ID: i, Workload: w, Hyper: h, Sys: params.DefaultSysConfig(),
				Seed: uint64(5000 + i), Trainer: CaptureTrainerConfig(tr),
			}
		}
		return out
	}
	marshal := func(res []*trainer.Result) []string {
		out := make([]string, len(res))
		for i, r := range res {
			b, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = string(b)
		}
		return out
	}
	run := func(b Backend) []string {
		trials := trialsFor(smallTrainer())
		res, errs := b.Run(context.Background(), trials, 2)
		for i, err := range errs {
			if err != nil {
				t.Fatalf("%s trial %d (%s): %v", b.Name(), i, trials[i].Workload.Name(), err)
			}
		}
		return marshal(res)
	}

	want := run(NewLocal(smallTrainer()))
	jsonFleet, _ := startFleet(t, 2, RemoteConfig{Wire: WireJSON})
	binFleet, _ := startFleet(t, 2, RemoteConfig{Wire: WireBinary})
	gotJSON := run(jsonFleet)
	gotBin := run(binFleet)
	cat := workload.Catalog()
	for i := range want {
		if gotJSON[i] != want[i] {
			t.Errorf("%s: json wire diverges from local", cat[i].Name())
		}
		if gotBin[i] != want[i] {
			t.Errorf("%s: binary wire diverges from local", cat[i].Name())
		}
	}
}

// TestStreamTokenAuth pins auth on the upgrade path: the 401 happens in
// plain HTTP before any hijack, so a bad token is terminal for the agent
// and a good one streams normally.
func TestStreamTokenAuth(t *testing.T) {
	r := NewRemote(RemoteConfig{Token: "s3cret", Wire: WireBinary, HeartbeatInterval: 50 * time.Millisecond})
	t.Cleanup(r.Close)
	srv := httptest.NewServer(r.Handler())
	t.Cleanup(srv.Close)

	bad := NewAgent(AgentConfig{Server: srv.URL, Token: "wrong", Wire: WireBinary})
	if err := bad.Run(context.Background()); !errors.Is(err, ErrBadToken) {
		t.Fatalf("wrong token: %v, want ErrBadToken", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	good := NewAgent(AgentConfig{Server: srv.URL, Token: "s3cret", Wire: WireBinary})
	done := make(chan error, 1)
	go func() { done <- good.Run(ctx) }()
	deadline := time.Now().Add(2 * time.Second)
	for len(r.Fleet().Workers) == 0 {
		if !time.Now().Before(deadline) {
			t.Fatal("correctly-tokened stream agent never registered")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("agent exit: %v, want context.Canceled", err)
	}
}

// TestCorruptFrameEvictsAndRequeues is the failure-path half of the
// codec contract (and what FuzzFrameDecode's invariant protects): a
// worker that sends a torn frame is evicted through the standard
// requeue path, and its lease completes on a healthy worker — the job
// never sees the corruption.
func TestCorruptFrameEvictsAndRequeues(t *testing.T) {
	// A huge missed-heartbeat budget: the corrupt frame, not the reaper,
	// must be what evicts the misbehaving worker.
	r := NewRemote(RemoteConfig{Wire: WireBinary, HeartbeatInterval: 50 * time.Millisecond, MissedHeartbeats: 100, Logf: t.Logf})
	t.Cleanup(r.Close)
	srv := httptest.NewServer(r.Handler())
	t.Cleanup(srv.Close)

	// A hand-driven stream client: handshake like a real worker, then
	// misbehave.
	a := NewAgent(AgentConfig{Server: srv.URL, Name: "corrupt", Capacity: 1})
	conn, br, err := a.dialStream(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if _, err := conn.Write([]byte(streamMagic)); err != nil {
		t.Fatal(err)
	}
	fw := &frameWriter{w: conn}
	wb := getWirebuf()
	encodeHello(wb, "corrupt", 1)
	if err := fw.send(frameHello, wb.b); err != nil {
		t.Fatal(err)
	}
	putWirebuf(wb)
	var scratch []byte
	ft, _, err := readFrame(br, &scratch)
	if err != nil || ft != frameWelcome {
		t.Fatalf("handshake: ft %d err %v", ft, err)
	}

	// Submit one trial; the corrupt worker is the only worker, so the
	// grant lands on it.
	tr := smallTrainer()
	type runOut struct {
		res  []*trainer.Result
		errs []error
	}
	ran := make(chan runOut, 1)
	go func() {
		res, errs := r.Run(context.Background(), realTrials(tr, 1), 0)
		ran <- runOut{res, errs}
	}()
	if ft, _, err := readFrame(br, &scratch); err != nil || ft != frameGrant {
		t.Fatalf("grant: ft %d err %v", ft, err)
	}

	// Send a frame whose CRC does not match its payload.
	bad := encodeFrameBytes(t, frameEpoch, func(w *wirebuf) { w.str("ls-000001") })
	bad[len(bad)-1] ^= 0xFF
	if _, err := conn.Write(bad); err != nil {
		t.Fatal(err)
	}

	// The daemon must evict the corrupt worker and requeue its lease...
	deadline := time.Now().Add(5 * time.Second)
	for {
		fs := r.Fleet()
		evicted := 0
		for _, w := range fs.Workers {
			if w.State == "evicted" {
				evicted++
			}
		}
		if evicted == 1 && fs.RequeuedTrials >= 1 {
			break
		}
		if !time.Now().Before(deadline) {
			t.Fatalf("corrupt worker never evicted: %+v", fs)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// ...and a healthy worker picks it up and completes the job.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	healthy := NewAgent(AgentConfig{Server: srv.URL, Name: "healthy", Capacity: 1, Wire: WireBinary})
	go func() { _ = healthy.Run(ctx) }()
	select {
	case out := <-ran:
		if out.errs[0] != nil {
			t.Fatalf("trial after corrupt-worker eviction: %v", out.errs[0])
		}
		want, err := smallTrainer().Run(realTrials(tr, 1)[0].Workload, realTrials(tr, 1)[0].Hyper, realTrials(tr, 1)[0].Sys, realTrials(tr, 1)[0].Seed, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(out.res[0], want) {
			t.Fatal("post-eviction result diverges from a direct run")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("job never completed after corrupt-worker eviction")
	}
}

// TestStreamDrainFailsPendingCommitsInflight pins drain semantics on the
// binary wire: at drain start, pending leases fail instantly with
// ErrDraining while the in-flight one gets its drain window to commit —
// identical to the JSON wire's contract.
func TestStreamDrainFailsPendingCommitsInflight(t *testing.T) {
	r := NewRemote(RemoteConfig{Wire: WireBinary, HeartbeatInterval: 50 * time.Millisecond, MissedHeartbeats: 100, Logf: t.Logf})
	t.Cleanup(r.Close)
	srv := httptest.NewServer(r.Handler())
	t.Cleanup(srv.Close)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	agent := NewAgent(AgentConfig{Server: srv.URL, Capacity: 1, Wire: WireBinary})
	go func() { _ = agent.Run(ctx) }()

	tr := smallTrainer()
	trials := realTrials(tr, 4) // 1 leased (capacity 1) + 3 pending
	// Long enough that the leased trial is still running when the fleet
	// poll below observes it: at two epochs a trial can finish between
	// two polls, and the 1 leased + 3 pending state is then never seen.
	for i := range trials {
		trials[i].Hyper.Epochs = 20
	}
	type runOut struct {
		res  []*trainer.Result
		errs []error
	}
	ran := make(chan runOut, 1)
	go func() {
		res, errs := r.Run(context.Background(), trials, 0)
		ran <- runOut{res, errs}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		fs := r.Fleet()
		if fs.LeasedTrials == 1 && fs.PendingTrials == 3 {
			break
		}
		if !time.Now().Before(deadline) {
			t.Fatalf("worker never reached 1 leased + 3 pending: %+v", fs)
		}
		time.Sleep(2 * time.Millisecond)
	}
	r.Drain(30 * time.Second)
	out := <-ran
	completed, drained := 0, 0
	for i := range trials {
		switch {
		case out.errs[i] == nil && out.res[i] != nil:
			completed++
		case errors.Is(out.errs[i], ErrDraining):
			drained++
		default:
			t.Fatalf("trial %d: unexpected outcome res=%v err=%v", i, out.res[i], out.errs[i])
		}
	}
	// The leased trial commits inside the drain window; every pending
	// trial fails instantly. (The leased trial may in principle finish in
	// the instant between the fleet snapshot and Drain, pulling another
	// lease — hence >=1/<=3 instead of exactly 1/3.)
	if completed < 1 || drained < 2 || completed+drained != 4 {
		t.Fatalf("drain outcome: %d completed, %d drained; want >=1 committed, rest drained", completed, drained)
	}
}
