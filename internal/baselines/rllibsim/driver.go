package rllibsim

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"time"

	"xingtian/internal/algorithm"
	"xingtian/internal/core"
	"xingtian/internal/message"
	"xingtian/internal/netsim"
	"xingtian/internal/replay"
	"xingtian/internal/rollout"
	"xingtian/internal/rpcsim"
	"xingtian/internal/serialize"
	"xingtian/internal/stats"
)

// AlgoConfig parameterizes an RLLib-model DRL run, mirroring core.Config.
type AlgoConfig struct {
	NumExplorers int
	RolloutLen   int
	MaxSteps     int64
	MaxDuration  time.Duration
	Machines     int
	Net          netsim.Config
	Compress     bool
	// PlaneNsPerKB emulates a slower serialization plane
	// (serialize.Compressor.PackNsPerKB); 0 uses the raw Go codec.
	PlaneNsPerKB int
	SeriesBucket time.Duration
}

// actor hosts one explorer agent behind an RPC server: it does nothing
// until the driver asks it to sample or to install weights.
type actor struct {
	agent core.Agent
	srv   *rpcsim.Server
}

// RunAlgorithm executes a DRL training run under the RLLib communication
// model: a central driver pulls rollouts over RPC (through the object-store
// copies), trains, then pushes weights over RPC — all strictly serialized
// with the computation, which is the paper's Section 2.2 critique.
//
// The same Algorithm/Agent implementations as the XingTian runs are used,
// so measured differences come only from communication management.
func RunAlgorithm(cfg AlgoConfig, algF core.AlgorithmFactory, agF core.AgentFactory, seed int64) (*core.Report, error) {
	if cfg.NumExplorers < 1 {
		cfg.NumExplorers = 1
	}
	if cfg.Machines < 1 {
		cfg.Machines = 1
	}
	if cfg.RolloutLen <= 0 {
		cfg.RolloutLen = 200
	}
	bucket := cfg.SeriesBucket
	if bucket <= 0 {
		bucket = time.Second
	}

	net := netsim.New(cfg.Net)
	rpcCfg := DefaultRPC
	rpcCfg.TimeScale = cfg.Net.TimeScale
	comp := serialize.Compressor{}
	if cfg.Compress {
		comp = serialize.NewCompressor()
	}
	comp.PackNsPerKB = cfg.PlaneNsPerKB

	alg, err := algF(seed)
	if err != nil {
		return nil, fmt.Errorf("rllibsim: build algorithm: %w", err)
	}

	actors := make([]*actor, cfg.NumExplorers)
	for i := range actors {
		agent, err := agF(int32(i), seed+int64(i)+1)
		if err != nil {
			return nil, fmt.Errorf("rllibsim: build agent %d: %w", i, err)
		}
		a := &actor{agent: agent}
		id := int32(i)
		a.srv = rpcsim.NewServer(i%cfg.Machines, net, rpcCfg, func(method string, payload []byte) ([]byte, error) {
			switch method {
			case "sample":
				b, err := agent.Rollout(cfg.RolloutLen)
				if err != nil {
					return nil, err
				}
				b.ExplorerID = id
				raw, err := serialize.Marshal(b)
				if err != nil {
					return nil, err
				}
				framed, _ := comp.Pack(raw)
				serialize.PlaneDelay(serialize.FramedLogicalLen(framed), comp.PackNsPerKB) // object-store marshal
				return storeCopy(framed), nil
			case "set_weights":
				raw, err := comp.Unpack(storeCopy(payload))
				if err != nil {
					return nil, err
				}
				body, err := serialize.Unmarshal(raw)
				if err != nil {
					return nil, err
				}
				w, ok := body.(*message.WeightsPayload)
				if !ok {
					return nil, fmt.Errorf("rllibsim actor: bad weights body %T", body)
				}
				return nil, agent.SetWeights(w)
			default:
				return nil, fmt.Errorf("rllibsim actor: unknown method %q", method)
			}
		})
		actors[i] = a
	}
	defer func() {
		for _, a := range actors {
			a.srv.Stop()
		}
	}()

	d := &driver{
		cfg:       cfg,
		alg:       alg,
		actors:    actors,
		client:    rpcsim.NewClient(0, net),
		comp:      comp,
		series:    stats.NewSeries(bucket),
		transHist: stats.NewHistogram(),
	}

	start := time.Now()
	switch alg.Name() {
	case "DQN":
		err = d.runDQN(net, rpcCfg, seed)
	case "PPO":
		err = d.runPPO()
	default: // IMPALA and other pull-per-explorer algorithms
		err = d.runRoundRobin()
	}
	duration := time.Since(start)
	if err != nil {
		return nil, err
	}

	var episodes int64
	var weighted float64
	for _, a := range actors {
		n, mean := a.agent.EpisodeStats()
		episodes += n
		weighted += mean * float64(n)
	}
	meanReturn := 0.0
	if episodes > 0 {
		meanReturn = weighted / float64(episodes)
	}
	return &core.Report{
		StepsConsumed:    d.consumed,
		TrainIters:       d.iters,
		Duration:         duration,
		Throughput:       float64(d.consumed) / duration.Seconds(),
		ThroughputSeries: d.series.PerSecond(),
		MeanWait:         d.transHist.Mean(), // pulls happen inline: wait == transmission
		WaitCDF:          d.transHist.CDF(),
		MeanTransmission: d.transHist.Mean(),
		Episodes:         episodes,
		MeanReturn:       meanReturn,
		StepsGenerated:   d.consumed,
	}, nil
}

type driver struct {
	cfg       AlgoConfig
	alg       core.Algorithm
	actors    []*actor
	client    *rpcsim.Client
	comp      serialize.Compressor
	series    *stats.Series
	transHist *stats.Histogram

	consumed int64
	iters    int64
	deadline time.Time
}

func (d *driver) done() bool {
	if d.cfg.MaxSteps > 0 && d.consumed >= d.cfg.MaxSteps {
		return true
	}
	if d.cfg.MaxDuration > 0 {
		if d.deadline.IsZero() {
			d.deadline = time.Now().Add(d.cfg.MaxDuration)
		}
		return time.Now().After(d.deadline)
	}
	return false
}

// pull fetches one rollout from an actor, paying the full serial cost.
func (d *driver) pull(a *actor) (*rollout.Batch, error) {
	start := time.Now()
	framed, err := d.client.Call(a.srv, "sample", nil)
	if err != nil {
		return nil, err
	}
	local := storeCopy(framed)
	serialize.PlaneDelay(serialize.FramedLogicalLen(local), d.comp.PackNsPerKB/8) // object-store fetch
	raw, err := d.comp.Unpack(local)
	if err != nil {
		return nil, err
	}
	body, err := serialize.Unmarshal(raw)
	if err != nil {
		return nil, err
	}
	d.transHist.Observe(time.Since(start))
	b, ok := body.(*rollout.Batch)
	if !ok {
		return nil, fmt.Errorf("rllibsim driver: bad rollout body %T", body)
	}
	return b, nil
}

// pushWeights installs the learner's weights on the given actors via RPC.
func (d *driver) pushWeights(targets []*actor) error {
	raw, err := serialize.Marshal(d.alg.Weights())
	if err != nil {
		return err
	}
	framed, _ := d.comp.Pack(raw)
	stored := storeCopy(framed)
	errs := make([]error, len(targets))
	var wg sync.WaitGroup
	for i, a := range targets {
		wg.Add(1)
		go func(i int, a *actor) {
			defer wg.Done()
			_, errs[i] = d.client.Call(a.srv, "set_weights", stored)
		}(i, a)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (d *driver) account(res core.TrainResult) {
	d.iters++
	d.consumed += int64(res.StepsConsumed)
	d.series.Add(float64(res.StepsConsumed))
}

// runRoundRobin is the IMPALA-style loop under Ray's futures model: the
// driver keeps one sample task in flight per actor (ray.wait on a task
// list), so pulls from different actors overlap each other — but every
// response still pays the object-store fetch and deserialization serially
// on the driver before training, and a new pull starts only after the
// driver asks. That serial driver-side slice is what the paper's Fig. 8(b)
// measures against XingTian's near-zero actual wait.
func (d *driver) runRoundRobin() error {
	if err := d.pushWeights(d.actors); err != nil {
		return err
	}
	type pulled struct {
		framed []byte
		idx    int
		start  time.Time
		err    error
	}
	ready := make(chan pulled, len(d.actors))
	launch := func(idx int) {
		start := time.Now()
		go func() {
			framed, err := d.client.Call(d.actors[idx].srv, "sample", nil)
			ready <- pulled{framed: framed, idx: idx, start: start, err: err}
		}()
	}
	for i := range d.actors {
		launch(i)
	}
	inFlight := len(d.actors)
	defer func() {
		// Drain outstanding pulls so their goroutines finish.
		for ; inFlight > 0; inFlight-- {
			<-ready
		}
	}()

	for !d.done() {
		p := <-ready
		inFlight--
		if p.err != nil {
			return p.err
		}
		// Serial driver-side slice: store fetch + deserialize.
		local := storeCopy(p.framed)
		serialize.PlaneDelay(serialize.FramedLogicalLen(local), d.comp.PackNsPerKB/8)
		raw, err := d.comp.Unpack(local)
		if err != nil {
			return err
		}
		body, err := serialize.Unmarshal(raw)
		if err != nil {
			return err
		}
		d.transHist.Observe(time.Since(p.start))
		b, ok := body.(*rollout.Batch)
		if !ok {
			return fmt.Errorf("rllibsim driver: bad rollout body %T", body)
		}
		d.alg.PrepareData(b)
		for {
			res, ok, err := d.alg.TryTrain()
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			d.account(res)
			if res.Broadcast {
				if err := d.pushWeights([]*actor{d.actors[p.idx]}); err != nil {
					return err
				}
			}
		}
		launch(p.idx)
		inFlight++
	}
	return nil
}

// runPPO is the synchronous loop: parallel pulls from every actor, barrier,
// serial deserialization (inside pull), train, broadcast.
func (d *driver) runPPO() error {
	if err := d.pushWeights(d.actors); err != nil {
		return err
	}
	for !d.done() {
		pullStart := time.Now()
		batches := make([]*rollout.Batch, len(d.actors))
		errs := make([]error, len(d.actors))
		framedResponses := make([][]byte, len(d.actors))
		var wg sync.WaitGroup
		for i, a := range d.actors {
			wg.Add(1)
			go func(i int, a *actor) {
				defer wg.Done()
				framedResponses[i], errs[i] = d.client.Call(a.srv, "sample", nil)
			}(i, a)
		}
		wg.Wait()
		for i := range d.actors {
			if errs[i] != nil {
				return errs[i]
			}
			local := storeCopy(framedResponses[i])
			serialize.PlaneDelay(serialize.FramedLogicalLen(local), d.comp.PackNsPerKB/8)
			raw, err := d.comp.Unpack(local)
			if err != nil {
				return err
			}
			body, err := serialize.Unmarshal(raw)
			if err != nil {
				return err
			}
			b, ok := body.(*rollout.Batch)
			if !ok {
				return fmt.Errorf("rllibsim ppo: bad body %T", body)
			}
			batches[i] = b
		}
		d.transHist.Observe(time.Since(pullStart))
		for _, b := range batches {
			d.alg.PrepareData(b)
		}
		for {
			res, ok, err := d.alg.TryTrain()
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			d.account(res)
		}
		if err := d.pushWeights(d.actors); err != nil {
			return err
		}
	}
	return nil
}

// runDQN hosts the replay buffer in a separate actor process, the structure
// the paper's Fig. 9 analyzes: every training session pays a full RPC
// round trip to sample 32 steps.
func (d *driver) runDQN(net *netsim.Network, rpcCfg rpcsim.Config, seed int64) error {
	dqn, ok := d.alg.(*algorithm.DQN)
	if !ok {
		return fmt.Errorf("rllibsim: DQN driver needs *algorithm.DQN, got %T", d.alg)
	}
	cfg := dqn.Config()

	// Replay actor on machine 0 (a separate process in the paper's terms).
	buf := replay.NewBuffer(cfg.ReplayCapacity)
	rng := newSplitRand(seed)
	stored := 0
	replayActor := rpcsim.NewServer(0, net, rpcCfg, func(method string, payload []byte) ([]byte, error) {
		switch method {
		case "add":
			ts, err := unmarshalTransitions(storeCopy(payload))
			if err != nil {
				return nil, err
			}
			for _, t := range ts {
				buf.Add(t)
			}
			stored += len(ts)
			return nil, nil
		case "sample":
			n := int(binary.LittleEndian.Uint32(payload))
			ts, err := buf.Sample(rng, n)
			if err != nil {
				return nil, err
			}
			return storeCopy(marshalTransitions(ts)), nil
		default:
			return nil, fmt.Errorf("replay actor: unknown method %q", method)
		}
	})
	defer replayActor.Stop()

	if err := d.pushWeights(d.actors); err != nil {
		return err
	}
	sizeReq := make([]byte, 4)
	binary.LittleEndian.PutUint32(sizeReq, uint32(cfg.BatchSize))

	pending := 0
	for !d.done() {
		// Pull a fragment from the (single) explorer and ship it to the
		// replay actor.
		b, err := d.pull(d.actors[0])
		if err != nil {
			return err
		}
		ts := dqn.FeaturizeBatch(b)
		if _, err := d.client.Call(replayActor, "add", storeCopy(marshalTransitions(ts))); err != nil {
			return err
		}
		pending += len(ts)

		if stored < cfg.TrainStart {
			continue
		}
		for pending >= cfg.TrainEvery && !d.done() {
			pending -= cfg.TrainEvery
			sampleStart := time.Now()
			resp, err := d.client.Call(replayActor, "sample", sizeReq)
			if err != nil {
				return err
			}
			batch, err := unmarshalTransitions(storeCopy(resp))
			if err != nil {
				return err
			}
			d.transHist.Observe(time.Since(sampleStart))
			res, err := dqn.TrainOnTransitions(batch)
			if err != nil {
				return err
			}
			d.account(res)
			if res.Broadcast {
				if err := d.pushWeights(d.actors); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// Transition wire codec (driver <-> replay actor) -----------------------------

func marshalTransitions(ts []replay.Transition) []byte {
	size := 4
	for _, t := range ts {
		size += 4 + 4*len(t.Obs) + 4 + 4*len(t.NextObs) + 4 + 4 + 1
	}
	out := make([]byte, 0, size)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(ts)))
	for _, t := range ts {
		out = appendF32s(out, t.Obs)
		out = appendF32s(out, t.NextObs)
		out = binary.LittleEndian.AppendUint32(out, uint32(t.Action))
		out = binary.LittleEndian.AppendUint32(out, math.Float32bits(t.Reward))
		if t.Done {
			out = append(out, 1)
		} else {
			out = append(out, 0)
		}
	}
	return out
}

func appendF32s(dst []byte, vs []float32) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(vs)))
	for _, v := range vs {
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(v))
	}
	return dst
}

func unmarshalTransitions(data []byte) ([]replay.Transition, error) {
	pos := 0
	readU32 := func() (uint32, error) {
		if pos+4 > len(data) {
			return 0, fmt.Errorf("rllibsim: truncated transitions at %d", pos)
		}
		v := binary.LittleEndian.Uint32(data[pos:])
		pos += 4
		return v, nil
	}
	readF32s := func() ([]float32, error) {
		n, err := readU32()
		if err != nil {
			return nil, err
		}
		if pos+4*int(n) > len(data) {
			return nil, fmt.Errorf("rllibsim: truncated float block at %d", pos)
		}
		if n == 0 {
			return nil, nil
		}
		out := make([]float32, n)
		for i := range out {
			out[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[pos:]))
			pos += 4
		}
		return out, nil
	}
	count, err := readU32()
	if err != nil {
		return nil, err
	}
	ts := make([]replay.Transition, 0, count)
	for i := uint32(0); i < count; i++ {
		var t replay.Transition
		if t.Obs, err = readF32s(); err != nil {
			return nil, err
		}
		if t.NextObs, err = readF32s(); err != nil {
			return nil, err
		}
		a, err := readU32()
		if err != nil {
			return nil, err
		}
		t.Action = int(a)
		r, err := readU32()
		if err != nil {
			return nil, err
		}
		t.Reward = math.Float32frombits(r)
		if pos >= len(data) {
			return nil, fmt.Errorf("rllibsim: truncated done flag")
		}
		t.Done = data[pos] == 1
		pos++
		ts = append(ts, t)
	}
	return ts, nil
}
