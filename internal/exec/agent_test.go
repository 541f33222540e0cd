package exec

import (
	"context"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// startFleet boots a Remote behind a real HTTP server plus n in-process
// Agents speaking the real stream protocol — the full remote stack in
// one test binary.
func startFleet(t *testing.T, n int, cfg RemoteConfig) (*Remote, context.CancelFunc) {
	t.Helper()
	if cfg.HeartbeatInterval == 0 {
		cfg.HeartbeatInterval = 50 * time.Millisecond
	}
	r := NewRemote(cfg)
	srv := httptest.NewServer(r.Handler())
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		agent := NewAgent(AgentConfig{
			Server:   srv.URL,
			Token:    cfg.Token,
			Name:     "test-agent",
			Capacity: 2,
		})
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = agent.Run(ctx)
		}()
	}
	t.Cleanup(func() {
		cancel()
		wg.Wait()
		srv.Close()
		r.Close()
	})
	return r, cancel
}

// TestAgentSurvivesEvictionAndReRegisters kills the connection story
// end to end: evicting an agent that missed the heartbeat window cuts
// its stream, the agent reconnects under a fresh registration, and it
// still computes trials.
func TestAgentSurvivesEvictionAndReRegisters(t *testing.T) {
	clock := newTestClock()
	r := NewRemote(RemoteConfig{
		HeartbeatInterval: 50 * time.Millisecond,
		MissedHeartbeats:  2,
		now:               clock.Now,
	})
	t.Cleanup(r.Close)
	srv := httptest.NewServer(r.Handler())
	t.Cleanup(srv.Close)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	agent := NewAgent(AgentConfig{Server: srv.URL, Capacity: 1})
	go func() { _ = agent.Run(ctx) }()

	waitFor := func(cond func() bool, what string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if !time.Now().Before(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitFor(func() bool { return len(r.Fleet().Workers) == 1 }, "registration")

	// Push the fake clock past the eviction horizon: the agent (whose
	// real-time heartbeats cannot move the fake clock) is evicted, the
	// eviction severs its stream, and the agent reconnects.
	clock.Advance(time.Second)
	r.evictStale()
	waitFor(func() bool {
		fs := r.Fleet()
		active := 0
		for _, w := range fs.Workers {
			if w.State == "active" {
				active++
			}
		}
		return active == 1 && len(fs.Workers) == 2
	}, "re-registration after eviction")

	// The re-registered agent still computes trials.
	tr := smallTrainer()
	results, errs := r.Run(context.Background(), realTrials(tr, 1), 0)
	if errs[0] != nil {
		t.Fatalf("trial after re-registration: %v", errs[0])
	}
	if results[0] == nil {
		t.Fatal("no result after re-registration")
	}
}
