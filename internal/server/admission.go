package server

import (
	"fmt"
	"sync/atomic"
)

// Admission control bounds the memory held by ingest frames read off the
// wire but not yet applied. A BATCH frame reserves its payload size against
// the connection's and the server's budgets before the payload is read,
// then the rest of its decoded size (up to 64 times the payload for a
// frame of NULLs). A frame that cannot reserve is skipped — the length
// prefix keeps the stream in sync — and answered in command order, so a
// loaded server sheds work instead of growing its heap; a reservation is
// released once its frame is applied.

// admit reserves more bytes for sc's frame, charged total in all, against
// both budgets. When it cannot, its error is the reply: a deterministic
// too-large ERR when total exceeds a budget itself, else "ERR busy".
func (s *Server) admit(sc *serverConn, more, total int64) error {
	if b := min(s.connBudget, s.globalBudget); total > b {
		return fmt.Errorf("frame costing %d bytes can never fit the %d-byte admission budget; send smaller frames", total, b)
	}
	if sc.queued.Add(more) > s.connBudget {
		sc.queued.Add(-more)
	} else if atomic.AddInt64(&s.stats.QueuedBytes, more) > s.globalBudget {
		atomic.AddInt64(&s.stats.QueuedBytes, -more)
		sc.queued.Add(-more)
	} else {
		return nil
	}
	atomic.AddInt64(&s.stats.BatchesShed, 1)
	atomic.AddInt64(&s.stats.ShedBytes, total)
	return errBusy
}

// release returns n reserved bytes to both budgets.
func (s *Server) release(sc *serverConn, n int64) {
	if n <= 0 {
		return
	}
	atomic.AddInt64(&s.stats.QueuedBytes, -n)
	sc.queued.Add(-n)
}
