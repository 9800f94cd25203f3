package env

import (
	"fmt"
	"math/rand"
)

// Arcade is a synthetic stand-in for the ALE Atari games used in the
// paper's evaluation (BeamRider, Breakout, Qbert, SpaceInvaders).
//
// Each game is a parameterization of one engine: objects descend through a
// 21×21 logical grid toward the player on the bottom row; the player moves
// left/right and, in shooter games, fires bullets. Catching or shooting
// objects scores game-specific points; a miss or collision costs a life.
// Observations are stacked 84×84 grayscale byte frames (84·84·4 = 28,224
// bytes), matching the per-step rollout payload of real Atari — which is
// what the paper's communication measurements depend on. The underlying
// MDP is genuinely learnable from the frames, so convergence comparisons
// between frameworks remain meaningful.
type Arcade struct {
	cfg       arcadeConfig
	rng       *rand.Rand
	playerX   int
	objects   []arcadeObject
	bullets   []arcadeObject
	lives     int
	steps     int
	fallClock int
	done      bool
	// strip holds the episode's rendered frames, oldest first; the last
	// frameStack of them are the current observation's stack (see obs).
	strip []byte
}

var _ Env = (*Arcade)(nil)

type arcadeObject struct {
	x, y int
}

type arcadeConfig struct {
	name         string
	shooter      bool    // true: shoot objects; false: catch them
	pointsPerHit float64 // score per object destroyed/caught
	spawnProb    float64 // per-step spawn probability
	fallEvery    int     // steps between one-cell descents
	lives        int
	maxSteps     int
}

// Arcade geometry.
const (
	gridW      = 21
	gridH      = 21
	cellPx     = 4
	framePx    = gridW * cellPx // 84
	frameStack = 4
	frameBytes = framePx * framePx
	stackBytes = frameStack * frameBytes
	// stripFrames is how many frames one strip holds before the next frame
	// starts a new one.
	stripFrames = 64
)

// arcadeConfigs mirrors the relative score scales of the four Atari games
// the paper evaluates (BeamRider and Qbert score in large increments,
// Breakout in single points, SpaceInvaders in tens).
var arcadeConfigs = map[string]arcadeConfig{
	"BeamRider":     {name: "BeamRider", shooter: true, pointsPerHit: 44, spawnProb: 0.10, fallEvery: 3, lives: 3, maxSteps: 10000},
	"Breakout":      {name: "Breakout", shooter: false, pointsPerHit: 1, spawnProb: 0.12, fallEvery: 2, lives: 5, maxSteps: 10000},
	"Qbert":         {name: "Qbert", shooter: false, pointsPerHit: 25, spawnProb: 0.10, fallEvery: 3, lives: 4, maxSteps: 10000},
	"SpaceInvaders": {name: "SpaceInvaders", shooter: true, pointsPerHit: 10, spawnProb: 0.14, fallEvery: 3, lives: 3, maxSteps: 10000},
}

// NewArcade returns the named synthetic arcade game.
func NewArcade(name string, seed int64) (*Arcade, error) {
	cfg, ok := arcadeConfigs[name]
	if !ok {
		return nil, fmt.Errorf("env: unknown arcade game %q", name)
	}
	return &Arcade{cfg: cfg, rng: rand.New(rand.NewSource(seed)), done: true}, nil
}

// Name implements Env.
func (a *Arcade) Name() string { return a.cfg.name }

// NumActions implements Env: 0 noop, 1 fire, 2 left, 3 right.
func (a *Arcade) NumActions() int { return 4 }

// FeatureDim implements Env: the compact state feature width.
func (a *Arcade) FeatureDim() int { return compactDim }

// DefaultPool is the pooling factor for frame-only observations; arcade
// observations carry compact features, so it applies only when pooling the
// raw frame stack explicitly.
const DefaultPool = 4

// Reset implements Env.
func (a *Arcade) Reset() (Obs, error) {
	a.playerX = gridW / 2
	a.objects = a.objects[:0]
	a.bullets = a.bullets[:0]
	a.lives = a.cfg.lives
	a.steps = 0
	a.fallClock = 0
	a.done = false
	// The opening stack is frameStack copies of the first frame.
	a.strip = make([]byte, 0, stripFrames*frameBytes)
	f := a.render()
	for i := 1; i < frameStack; i++ {
		copy(a.nextFrame(), f)
	}
	return a.obs(), nil
}

// Step implements Env.
func (a *Arcade) Step(action int) (Obs, float64, bool, error) {
	if a.done {
		return Obs{}, 0, true, ErrDone
	}
	a.steps++
	switch action {
	case 1: // fire
		if a.cfg.shooter && len(a.bullets) < 3 {
			a.bullets = append(a.bullets, arcadeObject{x: a.playerX, y: gridH - 2})
		}
	case 2: // left
		if a.playerX > 0 {
			a.playerX--
		}
	case 3: // right
		if a.playerX < gridW-1 {
			a.playerX++
		}
	}

	var reward float64

	// Bullets travel up three cells per step and destroy objects they meet.
	if a.cfg.shooter {
		kept := a.bullets[:0]
		for _, b := range a.bullets {
			hit := false
			for step := 0; step < 3 && !hit; step++ {
				b.y--
				if b.y < 0 {
					break
				}
				for i, o := range a.objects {
					if o.x == b.x && o.y == b.y {
						reward += a.cfg.pointsPerHit
						a.objects = append(a.objects[:i], a.objects[i+1:]...)
						hit = true
						break
					}
				}
			}
			if !hit && b.y >= 0 {
				kept = append(kept, b)
			}
		}
		a.bullets = kept
	}

	// Objects descend one cell every fallEvery steps.
	a.fallClock++
	if a.fallClock >= a.cfg.fallEvery {
		a.fallClock = 0
		kept := a.objects[:0]
		for _, o := range a.objects {
			o.y++
			if o.y >= gridH-1 {
				// Reached the player's row.
				if o.x == a.playerX {
					if a.cfg.shooter {
						a.lives-- // collision with the ship
					} else {
						reward += a.cfg.pointsPerHit // caught
					}
				} else if !a.cfg.shooter {
					a.lives-- // missed a falling object
				}
				continue
			}
			kept = append(kept, o)
		}
		a.objects = kept
	}

	// Spawn new objects at the top in a random column.
	if a.rng.Float64() < a.cfg.spawnProb && len(a.objects) < 8 {
		a.objects = append(a.objects, arcadeObject{x: a.rng.Intn(gridW), y: 0})
	}

	a.done = a.lives <= 0 || a.steps >= a.cfg.maxSteps
	a.render()
	return a.obs(), reward, a.done, nil
}

// render draws the grid into the strip's next 84×84 grayscale frame and
// returns that frame.
func (a *Arcade) render() []byte {
	f := a.nextFrame()
	drawCell := func(x, y int, v byte) {
		for dy := 0; dy < cellPx; dy++ {
			row := (y*cellPx + dy) * framePx
			for dx := 0; dx < cellPx; dx++ {
				f[row+x*cellPx+dx] = v
			}
		}
	}
	for _, o := range a.objects {
		drawCell(o.x, o.y, 170)
	}
	for _, b := range a.bullets {
		if b.y >= 0 {
			drawCell(b.x, b.y, 90)
		}
	}
	drawCell(a.playerX, gridH-1, 255)
	return f
}

// nextFrame extends the strip by one zeroed frame and returns it. A full
// strip is replaced by a new one that starts with a copy of its last
// frameStack−1 frames, so the stack that ends with the new frame is still one
// window; the old strip lives on as long as a stack that views it.
func (a *Arcade) nextFrame() []byte {
	n := len(a.strip)
	if n == cap(a.strip) {
		a.strip = append(make([]byte, 0, stripFrames*frameBytes), a.strip[n-stackBytes+frameBytes:]...)
		n = len(a.strip)
	}
	a.strip = a.strip[:n+frameBytes]
	return a.strip[n:]
}

// compactDim is the length of the arcade games' compact state features:
// player position, 8 object slots, 3 bullet slots (x, y, present each).
const compactDim = 1 + 8*3 + 3*3

func (a *Arcade) compactFeatures() []float32 {
	out := make([]float32, compactDim)
	out[0] = float32(a.playerX) / float32(gridW-1)
	for i := 0; i < 8; i++ {
		base := 1 + i*3
		if i < len(a.objects) {
			o := a.objects[i]
			out[base] = float32(o.x) / float32(gridW-1)
			out[base+1] = float32(o.y) / float32(gridH-1)
			out[base+2] = 1
		}
	}
	for i := 0; i < 3; i++ {
		base := 1 + 8*3 + i*3
		if i < len(a.bullets) && a.bullets[i].y >= 0 {
			b := a.bullets[i]
			out[base] = float32(b.x) / float32(gridW-1)
			out[base+1] = float32(b.y) / float32(gridH-1)
			out[base+2] = 1
		}
	}
	return out
}

// obs returns the current observation. Its frame stack is the strip's last
// frameStack frames, capacity-capped, so consecutive stacks share the frames
// they have in common and appending to one reallocates.
func (a *Arcade) obs() Obs {
	n := len(a.strip)
	frame := a.strip[n-stackBytes : n : n]
	// The frame stack is the transmission payload (real Atari size); the
	// compact vector is the model input, derived from the same state the
	// frame renders — so agents avoid re-deriving features from pixels on
	// every step, which this 1-core host could not afford (the paper's
	// testbed runs its pixel pipeline on dozens of cores).
	return Obs{
		Frame: frame, FrameH: framePx, FrameW: framePx, FrameN: frameStack,
		Vec: a.compactFeatures(),
	}
}
