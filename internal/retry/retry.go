// Package retry implements bounded, jittered exponential backoff — the
// retry discipline shared by the cluster's shard failover and the CLI's
// handling of the server's strictly-transient "ERR busy" shed. Jitter is
// the "full jitter over the top half" variant: the delay before retry i
// is uniform in [d/2, d] where d = min(Base·2^(i-1), Max), which keeps a
// floor under the backoff (retries never stampede immediately) while
// decorrelating clients that failed at the same instant.
package retry

import (
	"math/rand"
	"time"
)

// Policy bounds a retry loop. The zero value retries never (one attempt,
// no delay); fill the fields for real backoff.
type Policy struct {
	// MaxAttempts is the total number of tries including the first.
	// Values < 1 mean one attempt.
	MaxAttempts int
	// BaseDelay seeds the exponential schedule: the first retry waits
	// about BaseDelay, each later one about double the previous.
	BaseDelay time.Duration
	// MaxDelay caps the schedule. Zero means no cap.
	MaxDelay time.Duration
}

// Delay returns the jittered backoff to sleep before retry number i
// (1-based: i=1 precedes the second attempt). rng may be nil, in which
// case the shared math/rand source is used. Delay never returns a
// negative duration.
func (p Policy) Delay(i int, rng *rand.Rand) time.Duration {
	if i < 1 || p.BaseDelay <= 0 {
		return 0
	}
	d := p.BaseDelay
	for k := 1; k < i; k++ {
		d *= 2
		if p.MaxDelay > 0 && d >= p.MaxDelay {
			d = p.MaxDelay
			break
		}
	}
	if p.MaxDelay > 0 && d > p.MaxDelay {
		d = p.MaxDelay
	}
	// Uniform in [d/2, d].
	half := int64(d / 2)
	if half <= 0 {
		return d
	}
	var j int64
	if rng != nil {
		j = rng.Int63n(half + 1)
	} else {
		j = rand.Int63n(half + 1)
	}
	return time.Duration(half + j)
}
