package shard

import (
	"fmt"
	"sync"
)

// Pool is a bounded pull-based worker pool: a fixed set of workers
// range over a shared job queue, so an idle worker always pulls the
// next pending shard — stragglers never stall completed neighbours,
// and no coordinator thread assigns work (the celestia pull-based
// distribution shape, brought in-process). Submission order is
// preserved by the queue, but completion order is not; callers that
// need in-order merge hold the Tickets in submission order and adopt
// the head as it completes.
type Pool struct {
	jobs    chan func()
	wg      sync.WaitGroup
	workers int

	// mu guards closed against Go/Close races: Close flips closed
	// under the write lock before closing the channel, and Go holds
	// the read lock across the send, so a send can never hit a closed
	// channel — a late Go observes closed and returns a pre-failed
	// ticket instead.
	mu     sync.RWMutex
	closed bool
}

// ErrPoolClosed is the failure a Ticket carries when its job was
// submitted after Close.
var ErrPoolClosed = fmt.Errorf("shard: pool closed")

// NewPool starts workers goroutines pulling from a queue of depth
// backlog. Submissions beyond the backlog block until a worker frees a
// slot, which is the memory bound: at most backlog+workers jobs exist
// at once.
func NewPool(workers, backlog int) *Pool {
	if workers < 1 {
		workers = 1
	}
	if backlog < workers {
		backlog = workers
	}
	p := &Pool{jobs: make(chan func(), backlog), workers: workers}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer p.wg.Done()
			for fn := range p.jobs {
				fn()
			}
		}()
	}
	return p
}

// Workers returns the pool's worker count.
func (p *Pool) Workers() int { return p.workers }

// Go submits a job and returns its completion ticket. A panic inside
// the job is captured into the ticket (the worker survives), so a
// poisoned shard degrades to an error at adoption instead of killing
// the pool; a panic whose value is an error is wrapped so typed errors
// (e.g. decoder.DecodeError) survive errors.As through the ticket.
// After Close the ticket comes back already failed with ErrPoolClosed
// rather than panicking on a closed channel.
func (p *Pool) Go(fn func()) *Ticket {
	t := &Ticket{ch: make(chan struct{})}
	p.mu.RLock()
	if p.closed {
		p.mu.RUnlock()
		t.err = ErrPoolClosed
		close(t.ch)
		return t
	}
	p.jobs <- func() {
		defer func() {
			if r := recover(); r != nil {
				if err, ok := r.(error); ok {
					t.err = fmt.Errorf("shard: job panic: %w", err)
				} else {
					t.err = fmt.Errorf("shard: job panic: %v", r)
				}
			}
			close(t.ch)
		}()
		fn()
	}
	p.mu.RUnlock()
	return t
}

// Close retires the pool: subsequent Go calls return pre-failed
// tickets, and Close returns once every previously submitted job has
// finished and every worker has exited. Idempotent — a second Close
// returns immediately.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	close(p.jobs)
	p.mu.Unlock()
	p.wg.Wait()
}

// Ticket is a one-shot completion latch for a submitted job.
type Ticket struct {
	ch  chan struct{}
	err error
}

// Wait blocks until the job has finished.
func (t *Ticket) Wait() { <-t.ch }

// Err returns the job's captured panic, if any. Valid only after Wait
// has returned.
func (t *Ticket) Err() error { return t.err }
