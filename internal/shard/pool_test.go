package shard

import (
	"errors"
	"sync"
	"testing"
)

// TestPoolGoAfterClose: Go after Close must return a pre-failed
// ticket, not panic with a raw send on a closed channel.
func TestPoolGoAfterClose(t *testing.T) {
	p := NewPool(2, 4)
	p.Close()
	t1 := p.Go(func() { t.Error("job submitted after Close must not run") })
	t1.Wait() // must not block
	if !errors.Is(t1.Err(), ErrPoolClosed) {
		t.Fatalf("post-Close ticket err = %v, want ErrPoolClosed", t1.Err())
	}
}

// TestPoolCloseIdempotent: a second Close must return instead of
// closing an already-closed channel.
func TestPoolCloseIdempotent(t *testing.T) {
	p := NewPool(1, 1)
	p.Go(func() {}).Wait()
	p.Close()
	p.Close()
}

// TestPoolGoCloseRace hammers concurrent Go and Close under -race:
// every Go must either run its job or fail with ErrPoolClosed; no
// send-on-closed-channel panics, no lost tickets.
func TestPoolGoCloseRace(t *testing.T) {
	for iter := 0; iter < 50; iter++ {
		p := NewPool(2, 4)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 20; i++ {
					tk := p.Go(func() {})
					tk.Wait()
					if err := tk.Err(); err != nil && !errors.Is(err, ErrPoolClosed) {
						t.Errorf("unexpected ticket error: %v", err)
					}
				}
			}()
		}
		p.Close()
		wg.Wait()
	}
}

// TestPoolPanicPreservesTypedError: an error-valued panic must survive
// the ticket as a wrapped error so errors.As still finds the type —
// a poisoned stripe's error reaches the decoder's caller this way.
func TestPoolPanicPreservesTypedError(t *testing.T) {
	type poisonErr struct{ error }
	p := NewPool(1, 1)
	defer p.Close()
	want := poisonErr{errors.New("poisoned shard")}
	tk := p.Go(func() { panic(error(want)) })
	tk.Wait()
	var got poisonErr
	if !errors.As(tk.Err(), &got) {
		t.Fatalf("typed error lost through panic capture: %v", tk.Err())
	}
	if got != want {
		t.Fatalf("got %v, want %v", got, want)
	}
}
