package main

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"pipetune"
	"pipetune/api"
	"pipetune/client"
	"pipetune/internal/exec"
	"pipetune/internal/params"
	"pipetune/internal/search"
	"pipetune/internal/service"
	"pipetune/internal/xrand"
)

// rig is one running daemon: the System and service under test, served
// over a loopback HTTP listener, plus the in-process worker agents of a
// fleet workload.
type rig struct {
	w      Workload
	sys    *pipetune.System
	svc    *service.Service
	srv    *httptest.Server
	cl     *client.Client
	remote *exec.Remote
	gtDir  string
	tr     *tracer // nil on untraced rigs

	stopAgents context.CancelFunc
	agents     sync.WaitGroup
}

// setup builds a daemon for the workload with the service's default
// configuration (2 job workers, FIFO job policy, metrics on), registers
// the fleet's agents, and synthesises every dataset's corpus on every
// trainer that will compute trials, so the timed phase starts warm.
func setup(w Workload, tmpRoot string, traced bool) (*rig, error) {
	opts := []pipetune.Option{pipetune.WithCorpusSize(w.TrainSize, w.TestSize)}
	if w.Cache {
		opts = append(opts, pipetune.WithTrialCache(0))
	}
	sys, err := pipetune.New(opts...)
	if err != nil {
		return nil, err
	}
	r := &rig{w: w, sys: sys, stopAgents: func() {}}
	cfg := service.Config{System: sys}
	if w.Fleet {
		r.remote = exec.NewRemote(exec.RemoteConfig{Wire: exec.WireBinary})
		cfg.Remote = r.remote
		// The daemon persists the ground truth by default; so does the
		// fleet workload, into a directory it removes at teardown.
		if r.gtDir, err = os.MkdirTemp(tmpRoot, "gt-"); err != nil {
			return nil, err
		}
		cfg.GTPath = filepath.Join(r.gtDir, "groundtruth.json")
	}
	if r.svc, err = service.New(cfg); err != nil {
		r.teardown()
		return nil, err
	}
	r.srv = httptest.NewServer(r.svc.Handler())
	r.cl = client.New(r.srv.URL)
	if traced {
		r.tr = installTracer(r)
	}
	if w.Fleet {
		if err := r.startAgents(2); err != nil {
			r.teardown()
			return nil, err
		}
	}
	if err := r.warmCorpora(); err != nil {
		r.teardown()
		return nil, err
	}
	return r, nil
}

// startAgents runs n pipetune-worker agents in-process against the
// daemon's loopback listener and waits until all have registered.
func (r *rig) startAgents(n int) error {
	ctx, cancel := context.WithCancel(context.Background())
	r.stopAgents = cancel
	for i := 0; i < n; i++ {
		agent := exec.NewAgent(exec.AgentConfig{
			Server:   r.srv.URL,
			Name:     fmt.Sprintf("agent-%d", i),
			Capacity: 2,
			Wire:     exec.WireBinary,
		})
		r.agents.Add(1)
		go func() {
			defer r.agents.Done()
			_ = agent.Run(ctx) // returns once ctx is cancelled at teardown
		}()
	}
	deadline := time.Now().Add(20 * time.Second)
	for len(r.remote.Fleet().Workers) < n {
		if time.Now().After(deadline) {
			return fmt.Errorf("only %d of %d agents registered", len(r.remote.Fleet().Workers), n)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}

// warmCorpora synthesises the corpus of every dataset of the mix on every
// trainer that will compute trials, so the timed phase starts warm. Per
// dataset it runs small tune-v1 jobs straight on the System, four
// one-epoch trials each, as many as the two agents hold at once. Any agent
// may take any lease, so on the fleet it repeats the job until every
// agent has committed a trial of that dataset. Baseline jobs never touch
// the ground truth.
func (r *rig) warmCorpora() error {
	const maxRounds = 50
	seen := map[string]bool{}
	for _, c := range r.w.Classes {
		wl, err := api.ParseWorkload(c.Workload)
		if err != nil {
			return err
		}
		if seen[wl.Dataset.String()] {
			continue
		}
		seen[wl.Dataset.String()] = true
		spec := r.sys.JobSpec(wl)
		spec.BaseHyper.Epochs = 1
		spec.Searcher = func(space params.Space, rng *xrand.Source) (search.Searcher, error) {
			return search.NewRandom(space, 4, 4, rng)
		}
		before := r.trialsDone()
		for round := 0; ; round++ {
			if round == maxRounds {
				return fmt.Errorf("warm %s: an agent took no trial in %d jobs", c.Workload, maxRounds)
			}
			if _, err := r.sys.RunBaseline(spec); err != nil {
				return fmt.Errorf("warm %s: %w", c.Workload, err)
			}
			if r.everyAgentWorkedSince(before) {
				break
			}
		}
	}
	return nil
}

// trialsDone maps each fleet agent to the trials it has committed; it is
// empty on local workloads.
func (r *rig) trialsDone() map[string]int {
	done := map[string]int{}
	if r.remote != nil {
		for _, w := range r.remote.Fleet().Workers {
			done[w.ID] = w.TrialsDone
		}
	}
	return done
}

func (r *rig) everyAgentWorkedSince(before map[string]int) bool {
	for id, n := range r.trialsDone() {
		if n == before[id] {
			return false
		}
	}
	return true
}

// teardown stops the agents, drains the service and removes the
// ground-truth directory.
func (r *rig) teardown() {
	r.stopAgents()
	r.agents.Wait()
	if r.svc != nil {
		r.svc.Shutdown()
	}
	if r.srv != nil {
		r.srv.Close()
	}
	if r.gtDir != "" {
		os.RemoveAll(r.gtDir)
	}
}

// jobRecord is one submitted job as the client saw it.
type jobRecord struct {
	req     api.JobRequest
	sent    time.Time     // before the submit call
	submit  time.Duration // submit call latency
	end     time.Time     // terminal SSE event received
	fetch   time.Duration // result fetch latency
	status  api.JobStatus // final status with result
	err     error         // refused, stream or fetch failure, or a failed check
	twin    *jobRecord    // the other half of a twin pair
	inPhase bool          // terminal event arrived before the deadline
}

// latency is submit to terminal event.
func (j *jobRecord) latency() time.Duration { return j.end.Sub(j.sent) }

// runLoad drives the closed loop: two client goroutines each keep two
// jobs outstanding (a twin pair counts as both) until the deadline, then
// wait for what they have outstanding. Items are taken in list order.
func runLoad(r *rig, items []Item, seconds float64) ([]*jobRecord, time.Time, error) {
	const clients, perClient = 2, 2
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	var (
		next      atomic.Int64
		mu        sync.Mutex
		all       []*jobRecord
		wg        sync.WaitGroup
		exhausted atomic.Bool
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			done := make(chan *jobRecord, perClient)
			inflight := 0
			for {
				for inflight+jobsPerItem(r.w) <= perClient && time.Now().Before(deadline) {
					i := int(next.Add(1) - 1)
					if i >= len(items) {
						exhausted.Store(true)
						break
					}
					recs := submitItem(r, items[i], done)
					mu.Lock()
					all = append(all, recs...)
					mu.Unlock()
					inflight += len(recs)
				}
				if inflight == 0 {
					return
				}
				<-done
				inflight--
			}
		}()
	}
	wg.Wait()
	if exhausted.Load() {
		return nil, start, errors.New("job list exhausted before the deadline")
	}
	for _, j := range all {
		j.inPhase = j.err == nil && !j.end.After(deadline)
	}
	return all, start, nil
}

func jobsPerItem(w Workload) int {
	if w.Twins {
		return 2
	}
	return 1
}

// submitItem submits every job of an item and follows each on its own
// goroutine, which fetches the result after the terminal event and then
// reports on done.
func submitItem(r *rig, it Item, done chan<- *jobRecord) []*jobRecord {
	recs := make([]*jobRecord, len(it.Jobs))
	for k, req := range it.Jobs {
		j := &jobRecord{req: req, sent: time.Now()}
		recs[k] = j
		st, err := r.cl.Submit(context.Background(), req)
		j.submit = time.Since(j.sent)
		if err != nil {
			j.err = fmt.Errorf("submit: %w", err)
			j.end = time.Now()
			done <- j
			continue
		}
		go follow(r, j, st.ID, done)
	}
	if len(recs) == 2 {
		recs[0].twin, recs[1].twin = recs[1], recs[0]
	}
	return recs
}

// followTimeout bounds one job's wait so a wedged job fails the run
// instead of hanging it.
const followTimeout = 100 * time.Second

func follow(r *rig, j *jobRecord, id string, done chan<- *jobRecord) {
	defer func() { done <- j }()
	ctx, cancel := context.WithTimeout(context.Background(), followTimeout)
	defer cancel()
	var final api.JobState
	err := r.cl.Follow(ctx, id, func(ev api.Event) error {
		if ev.Type == api.EventState {
			final = ev.State
		}
		return nil
	})
	j.end = time.Now()
	if err != nil {
		j.err = fmt.Errorf("follow %s: %w", id, err)
		return
	}
	t0 := time.Now()
	j.status, err = r.cl.Job(ctx, id)
	j.fetch = time.Since(t0)
	switch {
	case err != nil:
		j.err = fmt.Errorf("fetch %s: %w", id, err)
	case final != api.StateDone:
		j.err = fmt.Errorf("job %s ended %s: %s", id, final, j.status.Error)
	}
}
