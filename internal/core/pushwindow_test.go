package core_test

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"xingtian/internal/broker"
	"xingtian/internal/core"
	"xingtian/internal/message"
	"xingtian/internal/rollout"
)

// pushRecorder is a learn replica's algorithm that trains once per rollout
// and records, in order, each train, each Weights snapshot (carrying the
// train count), each installed echo, and each TryTrain with nothing to
// train — the trainer's step into its idle wait.
type pushRecorder struct {
	mu      sync.Mutex
	queued  int
	trains  int
	events  []string
	weights []time.Time // when each snapshot was taken
}

func (a *pushRecorder) Name() string { return "push-recorder" }

func (a *pushRecorder) PrepareData(*rollout.Batch) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.queued++
}

func (a *pushRecorder) TryTrain() (core.TrainResult, bool, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.queued == 0 {
		a.events = append(a.events, "idle")
		return core.TrainResult{}, false, nil
	}
	a.queued--
	a.trains++
	a.events = append(a.events, fmt.Sprintf("train %d", a.trains))
	return core.TrainResult{StepsConsumed: 1, Broadcast: true}, true, nil
}

func (a *pushRecorder) Weights() *message.WeightsPayload {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.events = append(a.events, fmt.Sprintf("weights %d", a.trains))
	a.weights = append(a.weights, time.Now())
	return &message.WeightsPayload{Version: int64(a.trains), Data: []float32{float32(a.trains)}}
}

func (a *pushRecorder) RestoreWeights(version int64, _ []float32) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.events = append(a.events, fmt.Sprintf("restore %d", version))
	return nil
}

// since returns the events recorded after the first n.
func (a *pushRecorder) since(n int) []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return slices.Clone(a.events[n:])
}

// settled reports whether the replica trained trains times and then went
// idle with nothing left to ingest, so everything it does for those trains
// is recorded.
func (a *pushRecorder) settled(trains int, idle func() bool) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.trains == trains && a.queued == 0 && len(a.events) > 0 &&
		a.events[len(a.events)-1] == "idle" && idle()
}

// pushRig runs one learn replica on a one-machine broker, fed by an
// explorer port, pushing to a broadcaster port the test reads and answers.
type pushRig struct {
	br    *broker.Broker
	src   *broker.Port // an explorer's
	cast  *broker.Port // the broadcaster's
	learn *broker.Port
	alg   *pushRecorder
	frag  *core.LearnFragment
}

func newPushRig(t *testing.T, retry time.Duration) *pushRig {
	t.Helper()
	r := &pushRig{br: broker.New(broker.Config{}), alg: &pushRecorder{}}
	var err error
	for _, reg := range []struct {
		port **broker.Port
		name string
	}{{&r.src, core.ExplorerName(0)}, {&r.cast, core.BroadcastName}, {&r.learn, core.LearnName(0)}} {
		if *reg.port, err = r.br.Register(reg.name); err != nil {
			t.Fatal(err)
		}
	}
	// The window is out of reach, so no rollout ack reaches explorer-0's port.
	r.frag = core.NewLearnFragment(0, r.alg, r.learn, 1<<20, 0)
	if retry > 0 {
		r.frag.SetPushRetry(retry)
	}
	r.frag.Start()
	t.Cleanup(r.stop)
	return r
}

// stop stops the replica and the broker and joins the replica; it may run
// more than once.
func (r *pushRig) stop() {
	r.frag.Stop()
	r.br.Stop()
	r.frag.Join()
}

// rollouts sends n rollouts to the replica.
func (r *pushRig) rollouts(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		m := message.New(message.TypeRollout, core.ExplorerName(0), []string{core.LearnName(0)}, testRollout())
		if err := r.src.Send(m); err != nil {
			t.Fatal(err)
		}
	}
}

// echo sends the replica an aggregate echo at version.
func (r *pushRig) echo(t *testing.T, version int64) {
	t.Helper()
	m := message.New(message.TypeWeights, core.BroadcastName, []string{core.LearnName(0)},
		&message.WeightsPayload{Version: version, Data: []float32{0}})
	if err := r.cast.Send(m); err != nil {
		t.Fatal(err)
	}
}

// settle waits until the replica has trained trains times and sits idle
// with nothing queued for it, then returns the events recorded after the
// first from.
func (r *pushRig) settle(t *testing.T, what string, trains, from int) []string {
	t.Helper()
	waitUntil(t, 5*time.Second, what, func() bool {
		return r.alg.settled(trains, func() bool { return r.learn.Pending() == 0 })
	})
	return r.alg.since(from)
}

// pushes counts the snapshots among events: every push takes one.
func pushes(events []string) []string {
	var out []string
	for _, e := range events {
		if strings.HasPrefix(e, "weights") {
			out = append(out, e)
		}
	}
	return out
}

// TestLearnReplicaOnePushInFlight: a learn replica keeps at most one push
// unanswered. Trains behind it only mark the replica dirty; the echo that
// answers it pushes the newest trained weights before installing itself;
// an echo with nothing trained since pushes nothing; an unanswered push is
// repeated once the retry bound expires; and Stop does not wait out that
// bound.
func TestLearnReplicaOnePushInFlight(t *testing.T) {
	t.Run("window", func(t *testing.T) {
		// A retry bound no run reaches keeps every count below exact.
		r := newPushRig(t, time.Hour)
		r.rollouts(t, 5)
		ev := r.settle(t, "five trains", 5, 0)
		if got := pushes(ev); !slices.Equal(got, []string{"weights 1"}) {
			t.Fatalf("5 trains with no echo took snapshots %v, want one push of train 1 (events %v)", got, ev)
		}
		seen := len(r.alg.since(0))

		r.echo(t, 100)
		waitUntil(t, 5*time.Second, "the echo's install", func() bool {
			return slices.Contains(r.alg.since(seen), "restore 100")
		})
		ev = r.settle(t, "the echo", 5, seen)
		if want := []string{"weights 5", "restore 100", "idle"}; !slices.Equal(ev, want) {
			t.Fatalf("echo to a dirty replica: events %v, want %v (train 5 pushed before the install)", ev, want)
		}
		seen += len(ev)

		r.echo(t, 101)
		waitUntil(t, 5*time.Second, "the second echo's install", func() bool {
			return slices.Contains(r.alg.since(seen), "restore 101")
		})
		ev = r.settle(t, "the second echo", 5, seen)
		if want := []string{"restore 101", "idle"}; !slices.Equal(ev, want) {
			t.Fatalf("echo to a clean replica: events %v, want %v (no push)", ev, want)
		}
		seen += len(ev)
		waitUntil(t, 5*time.Second, "two pushes at the broadcaster", func() bool { return r.cast.Pending() == 2 })

		// Train 6 pushes at once: the window is open again. Its push stays
		// unanswered, and Stop must not wait out the hour-long bound.
		r.rollouts(t, 1)
		ev = r.settle(t, "train 6", 6, seen)
		if got := pushes(ev); !slices.Equal(got, []string{"weights 6"}) {
			t.Fatalf("train 6 after a clean echo took snapshots %v, want one push", got)
		}
		stopped := make(chan struct{})
		start := time.Now()
		go func() {
			r.stop()
			close(stopped)
		}()
		timeout := time.NewTimer(5 * time.Second)
		defer timeout.Stop()
		select {
		case <-stopped:
		case <-timeout.C:
			t.Fatal("Stop with a push unanswered did not return within 5s")
		}
		if d := time.Since(start); d > time.Second {
			t.Errorf("Stop with a push unanswered took %v", d)
		}
		if err := r.frag.Err(); err != nil {
			t.Fatal(err)
		}
		if n := r.br.Metrics().LeakedAtStop; n != 0 {
			t.Fatalf("LeakedAtStop = %d, want 0", n)
		}
	})

	t.Run("retry", func(t *testing.T) {
		r := newPushRig(t, 0) // the production bound
		r.rollouts(t, 1)
		waitUntil(t, 5*time.Second, "the push to be repeated", func() bool {
			return len(pushes(r.alg.since(0))) >= 2
		})
		ev := r.alg.since(0)
		if got := pushes(ev)[:2]; !slices.Equal(got, []string{"weights 1", "weights 1"}) {
			t.Fatalf("snapshots %v, want train 1's weights twice", got)
		}
		r.alg.mu.Lock()
		gap := r.alg.weights[1].Sub(r.alg.weights[0])
		r.alg.mu.Unlock()
		if gap < core.PushRetry {
			t.Fatalf("the push was repeated after %v, want at least %v", gap, core.PushRetry)
		}
	})
}
