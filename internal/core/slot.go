package core

import (
	"fmt"
	"sync"
	"time"

	"xingtian/internal/broker"
	"xingtian/internal/message"
)

// fragment is what a slot needs of every incarnation it holds.
type fragment interface {
	Start()
	Err() error
}

// supervised is a fragment whose slot has a supervisor watching it fail.
type supervised interface {
	fragment
	Failed() <-chan struct{}
}

// tally is the progress a replaced incarnation leaves to its slot.
type tally struct {
	steps, iters, episodes int64
	returnSum              float64
}

// slotKind is everything one kind of slot (explorer, learn replica,
// broadcaster) differs in. The supervisor loop and the re-placement sequence
// call these and never ask which kind they hold; a nil hook does nothing.
type slotKind[F fragment] struct {
	// budget is the restarts failures may spend before the slot degrades.
	budget int
	// build makes slot id's next incarnation over port at epoch; old is the
	// incarnation it replaces.
	build func(id int, old F, port *broker.Port, epoch int32) (F, error)
	// retire tears a condemned incarnation down; false when the session shut
	// down first.
	retire func(name string, old F) bool
	// fold adds a replaced incarnation's progress to its slot's.
	fold func(old F, prior *tally)
	// leave and join tell the dataflow that an incarnation left it and that
	// its successor joined at epoch.
	leave, join func(name string, epoch int32)
	// fatal reports whether a slot that degrades now fails the run.
	fatal func() bool
	// rebroadcast addresses a takeover to the broadcaster too, which then
	// re-broadcasts the committed model.
	rebroadcast bool
	// detach unregisters the name of a slot that degrades, for a kind its
	// peers keep addressing regardless (weights go to every explorer name).
	detach bool
}

// slot is one fragment position: a stable name and id whose incarnation may
// be replaced after a failure or moved after its machine's death. The slot
// outlives every incarnation and carries the port registration, the home
// machine, the incarnation epoch, the budget spent, the verdict on it and the
// progress of replaced incarnations. Explorer and learn slots are written
// only by their supervisor, the broadcaster only by the machine-failover
// engine.
type slot[F fragment] struct {
	id   int
	name string
	kind *slotKind[F]
	// trigger carries verdicts against an incarnation (capacity 1, so
	// duplicates collapse): the broadcaster's heartbeat deadline, or the
	// machine-failover engine's order to move. Each names the epoch it
	// condemns, so one that raced a re-placement is recognised as stale.
	trigger chan int32

	mu          sync.Mutex
	machine     int
	port        *broker.Port
	cur         F
	epoch       int32
	restarts    int64 // restarts failures spent from the budget
	degraded    bool  // supervision gave up on the slot
	lastErr     error
	terminalErr error // the degrade's error, when it fails the run
	// prior sums the progress of *replaced* incarnations only, folded in at
	// the swap: a retiree that never gets a successor keeps counting through
	// cur, so each incarnation counts exactly once.
	prior tally
}

func newSlot[F fragment](kind *slotKind[F], id int, name string, machine int, port *broker.Port, cur F) *slot[F] {
	return &slot[F]{id: id, name: name, kind: kind, trigger: make(chan int32, 1),
		machine: machine, port: port, cur: cur}
}

// current returns the slot's live incarnation.
func (sl *slot[F]) current() F {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	return sl.cur
}

// home returns the slot's current machine.
func (sl *slot[F]) home() int {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	return sl.machine
}

// err is a supervised slot's share of Session.Err: only the error it
// degraded with, when that failed the run; handled failures were restarted
// away.
func (sl *slot[F]) err() error {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	return sl.terminalErr
}

// condemnOn posts a verdict on the slot's incarnation if it lives on
// machine; a verdict already pending is enough.
func (sl *slot[F]) condemnOn(machine int) {
	sl.mu.Lock()
	home, epoch := sl.machine, sl.epoch
	sl.mu.Unlock()
	if home == machine {
		sl.post(epoch)
	}
}

// post hands the slot's supervisor a verdict on incarnation epoch.
func (sl *slot[F]) post(epoch int32) {
	select {
	case sl.trigger <- epoch:
	default:
	}
}

// supervise is the one supervisor loop, run per explorer or learn slot. It
// waits for the incarnation to fail or for a verdict on it, retires it, and
// stands a successor up through replace. A failure spends restart budget and
// waits out a doubling backoff; a move the machine-failover engine ordered
// (the home is dead) spends neither. A slot whose budget is spent, or whose
// successor cannot be built, degrades. Session shutdown ends supervision on
// every path.
func supervise[F supervised](s *Session, sl *slot[F]) {
	defer s.superWG.Done()
	k := sl.kind
	backoff := s.cfg.RestartBackoff
	for {
		sl.mu.Lock()
		cur, epoch, home := sl.cur, sl.epoch, sl.machine
		sl.mu.Unlock()
		var err error
		// A home that died while the slot moved onto it posted no verdict
		// on this incarnation: move again without waiting for one.
		if !s.machineDead(home) {
			select {
			case <-s.shutdown:
				return
			case <-cur.Failed():
				err = cur.Err()
			case ep := <-sl.trigger:
				if ep != epoch {
					continue // condemns an incarnation already replaced
				}
				err = fmt.Errorf("core: %s missed its heartbeat deadline", sl.name)
			}
		}
		if k.leave != nil {
			k.leave(sl.name, epoch)
		}
		if !awaitVerdict(s, sl, home) {
			return
		}
		moved := s.machineDead(home)
		// The budget decides the degrade, not the teardown: judge it first,
		// so a run that ends while the teardown still waits reports it.
		exhausted := !moved && judge(sl, err)
		if !k.retire(sl.name, cur) {
			return
		}
		if exhausted {
			detach(s, sl)
			return
		}
		if !moved {
			timer := time.NewTimer(backoff)
			select {
			case <-s.shutdown:
				timer.Stop()
				return
			case <-timer.C:
			}
			backoff *= 2
		}
		if err := replace(s, sl, !moved); err != nil {
			degrade(sl, fmt.Errorf("core: restart %s: %w", sl.name, err))
			detach(s, sl)
			return
		}
	}
}

// awaitVerdict holds the judgement of a failure on a live home, under
// machine failover, until the membership plane has had twice its deadline
// to condemn the home: a machine's death shows first as its fragments'
// failures and missed heartbeats, and a move must not be charged as a
// failure. Verdicts posted meanwhile condemn the incarnation being retired.
// It reports false when the session shut down.
func awaitVerdict[F fragment](s *Session, sl *slot[F], home int) bool {
	if s.mfTransport == nil {
		return true
	}
	deadline := time.NewTimer(2 * leaseMisses * s.cfg.LeaseEvery)
	defer deadline.Stop()
	for !s.machineDead(home) {
		select {
		case <-s.shutdown:
			return false
		case <-deadline.C:
			return true
		case <-sl.trigger:
		}
	}
	return true
}

// judge records a failure of the slot's incarnation and degrades the slot
// when its restart budget is spent, reporting whether it did.
func judge[F fragment](sl *slot[F], err error) bool {
	sl.mu.Lock()
	sl.lastErr = err
	exhausted := sl.restarts >= int64(sl.kind.budget)
	sl.mu.Unlock()
	if exhausted {
		degrade(sl, fmt.Errorf("core: %s restart budget (%d) exhausted: %w", sl.name, sl.kind.budget, err))
	}
	return exhausted
}

// degrade gives up on a slot; err becomes its terminal error when losing the
// slot fails the run.
func degrade[F fragment](sl *slot[F], err error) {
	sl.mu.Lock()
	sl.degraded = true
	sl.mu.Unlock()
	if sl.kind.fatal() {
		sl.mu.Lock()
		sl.terminalErr = err
		sl.mu.Unlock()
	}
}

// detach unregisters a degraded slot's name when its kind asks for it, so
// what its peers keep sending it is dropped, not queued until Stop.
func detach[F fragment](s *Session, sl *slot[F]) {
	if sl.kind.detach {
		s.transport.Unregister(sl.home(), sl.name)
	}
}

// replace is the one re-placement sequence. A slot whose home machine is
// dead moves first: its name is unregistered there and registered on the
// least-loaded survivor. Then the successor is built, swapped in under the
// slot lock with the retiree's progress folded, started at the next epoch,
// and a move is announced as a takeover. restart spends a restart of the
// slot's budget.
func replace[F fragment](s *Session, sl *slot[F], restart bool) error {
	k := sl.kind
	sl.mu.Lock()
	home, port, old, epoch := sl.machine, sl.port, sl.cur, sl.epoch+1
	sl.mu.Unlock()
	to := home
	if s.machineDead(home) {
		s.transport.Unregister(home, sl.name)
		if to = s.pickSurvivor(); to < 0 {
			return fmt.Errorf("no survivor machine for %s", sl.name)
		}
		p, err := s.transport.Register(to, sl.name)
		if err != nil {
			return fmt.Errorf("re-place %s on machine %d: %w", sl.name, to, err)
		}
		port = p
	}
	next, err := k.build(sl.id, old, port, epoch)
	if err != nil {
		if to != home {
			s.transport.Unregister(to, sl.name)
		}
		return err
	}
	sl.mu.Lock()
	if k.fold != nil {
		k.fold(old, &sl.prior)
	}
	sl.cur, sl.port, sl.machine, sl.epoch = next, port, to, epoch
	if restart {
		sl.restarts++
	}
	sl.mu.Unlock()
	next.Start()
	if k.join != nil {
		k.join(sl.name, epoch)
	}
	if to != home {
		s.announceTakeover(sl.name, to, epoch, k.rebroadcast)
	}
	return nil
}

// nudge sends a stopped incarnation a no-op through its own port, so a
// thread blocked on the port wakes and sees it was stopped. The delivery is
// local to the port's broker: no link failure can lose it. The port stays
// registered for the successor, which ignores the no-op.
func nudge(port *broker.Port, name string) {
	_ = port.Send(message.New(message.TypeControl, name, []string{name},
		&message.ControlPayload{Kind: message.ControlDrain}))
}
