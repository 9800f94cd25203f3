// Package env provides gym-style environments for the DRL algorithm zoo.
//
// Two families are included: CartPole with faithful classic-control physics,
// and a synthetic arcade family (BeamRider, Breakout, Qbert, SpaceInvaders
// analogues) that substitutes for ALE Atari. The arcade games expose
// full-size 84×84×4 byte frame stacks — matching the rollout payload sizes
// the paper measures — while agents may train on pooled features
// (see Obs.PooledFeatures).
package env

import (
	"errors"
	"fmt"
)

// ErrDone is returned by Step after an episode has terminated and before
// Reset is called.
var ErrDone = errors.New("env: episode done; call Reset")

// Obs is an environment observation. Vector environments fill Vec only;
// frame-based arcade games fill Frame (a stacked 84×84×N byte image, the
// transmission payload) and additionally Vec with compact state features
// (the model input).
type Obs struct {
	// Frame is a raw byte frame stack for arcade environments, nil otherwise.
	// It is read-only: consecutive stacks are windows onto one strip of
	// frames and share the frames they have in common (the arcade games and
	// a decoded rollout both lay them out so), so a caller that writes must
	// Clone first. A retained stack keeps the storage it views alive: an
	// arcade strip of at most 64 frames, or every frame of the decoded
	// rollout it came in. Its capacity equals its length, so appending to it
	// reallocates.
	Frame []byte
	// FrameH, FrameW, FrameN describe Frame's geometry when it is set.
	FrameH, FrameW, FrameN int
	// Vec is a low-dimensional feature observation.
	Vec []float32
}

// SizeBytes returns the wire size of the observation payload.
func (o Obs) SizeBytes() int {
	return len(o.Frame) + 4*len(o.Vec)
}

// PooledFeatures converts the observation into a flat float32 feature vector
// suitable for a dense network: Vec is returned as-is; Frame is average-
// pooled by pool×pool blocks per stacked frame and scaled to [0,1].
func (o Obs) PooledFeatures(pool int) []float32 {
	if o.Vec != nil {
		return o.Vec
	}
	if pool < 1 {
		pool = 1
	}
	ph := o.FrameH / pool
	pw := o.FrameW / pool
	out := make([]float32, o.FrameN*ph*pw)
	area := float32(pool * pool * 255)
	for n := 0; n < o.FrameN; n++ {
		frame := o.Frame[n*o.FrameH*o.FrameW : (n+1)*o.FrameH*o.FrameW]
		for py := 0; py < ph; py++ {
			for px := 0; px < pw; px++ {
				var sum float32
				for dy := 0; dy < pool; dy++ {
					row := (py*pool + dy) * o.FrameW
					for dx := 0; dx < pool; dx++ {
						sum += float32(frame[row+px*pool+dx])
					}
				}
				out[n*ph*pw+py*pw+px] = sum / area
			}
		}
	}
	return out
}

// Clone returns a deep copy of the observation, whose Frame the caller may
// write.
func (o Obs) Clone() Obs {
	c := o
	if o.Frame != nil {
		c.Frame = append([]byte(nil), o.Frame...)
	}
	if o.Vec != nil {
		c.Vec = append([]float32(nil), o.Vec...)
	}
	return c
}

// Env is the gym-style environment interface of XingTian's Environment
// class: Reset starts an episode, Step advances it.
type Env interface {
	// Name identifies the environment (e.g. "CartPole", "BeamRider").
	Name() string
	// Reset starts a new episode and returns the first observation.
	Reset() (Obs, error)
	// Step applies an action; it returns the next observation, the reward,
	// and whether the episode terminated.
	Step(action int) (Obs, float64, bool, error)
	// NumActions returns the size of the discrete action space.
	NumActions() int
	// FeatureDim returns the length of PooledFeatures for this environment's
	// observations (the model input width).
	FeatureDim() int
}

// Make constructs a named environment with the given seed. Supported names:
// CartPole, MountainCar, Acrobot, Pendulum (continuous), and the arcade
// games BeamRider, Breakout, Qbert, SpaceInvaders.
func Make(name string, seed int64) (Env, error) {
	switch name {
	case "CartPole":
		return NewCartPole(seed), nil
	case "MountainCar":
		return NewMountainCar(seed), nil
	case "Acrobot":
		return NewAcrobot(seed), nil
	case "BeamRider", "Breakout", "Qbert", "SpaceInvaders":
		return NewArcade(name, seed)
	default:
		return nil, fmt.Errorf("env: unknown environment %q", name)
	}
}
