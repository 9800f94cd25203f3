package env

// EpisodeTracker wraps an Env and records per-episode returns and lengths,
// which is how the evaluation measures convergence (average episode return).
type EpisodeTracker struct {
	inner Env

	curReturn float64
	curLen    int

	// Completed episode history.
	returns []float64
	lengths []int
}

var _ Env = (*EpisodeTracker)(nil)

// NewEpisodeTracker wraps inner.
func NewEpisodeTracker(inner Env) *EpisodeTracker {
	return &EpisodeTracker{inner: inner}
}

// Name implements Env.
func (e *EpisodeTracker) Name() string { return e.inner.Name() }

// NumActions implements Env.
func (e *EpisodeTracker) NumActions() int { return e.inner.NumActions() }

// FeatureDim implements Env.
func (e *EpisodeTracker) FeatureDim() int { return e.inner.FeatureDim() }

// Reset implements Env.
func (e *EpisodeTracker) Reset() (Obs, error) {
	e.curReturn = 0
	e.curLen = 0
	return e.inner.Reset()
}

// Step implements Env, accumulating the running episode return.
func (e *EpisodeTracker) Step(action int) (Obs, float64, bool, error) {
	obs, r, done, err := e.inner.Step(action)
	if err != nil {
		return obs, r, done, err
	}
	e.curReturn += r
	e.curLen++
	if done {
		e.returns = append(e.returns, e.curReturn)
		e.lengths = append(e.lengths, e.curLen)
	}
	return obs, r, done, nil
}

// Episodes returns the number of completed episodes.
func (e *EpisodeTracker) Episodes() int { return len(e.returns) }

// MeanReturn returns the mean return over the last n completed episodes
// (all of them when n <= 0 or fewer exist). It returns 0 with no episodes.
func (e *EpisodeTracker) MeanReturn(n int) float64 {
	if len(e.returns) == 0 {
		return 0
	}
	start := 0
	if n > 0 && len(e.returns) > n {
		start = len(e.returns) - n
	}
	var sum float64
	for _, r := range e.returns[start:] {
		sum += r
	}
	return sum / float64(len(e.returns)-start)
}
