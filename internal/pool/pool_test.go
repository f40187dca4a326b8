package pool

import (
	"runtime"
	"sync"
	"testing"
)

func TestComplexZeroedAndRecycled(t *testing.T) {
	buf := Complex(2048)
	if len(buf) != 2048 {
		t.Fatalf("len = %d", len(buf))
	}
	for i := range buf {
		buf[i] = complex(1, 1)
	}
	PutComplex(buf)
	again := Complex(1024)
	for i, v := range again {
		if v != 0 {
			t.Fatalf("recycled buffer not zeroed at %d: %v", i, v)
		}
	}
}

func TestFloatGrowsWhenPooledTooSmall(t *testing.T) {
	PutFloat(make([]float64, 2048))
	buf := Float(1 << 16)
	if len(buf) != 1<<16 {
		t.Fatalf("len = %d", len(buf))
	}
	for _, v := range buf[:100] {
		if v != 0 {
			t.Fatal("not zeroed")
		}
	}
}

func TestBytesRoundTrip(t *testing.T) {
	b := Bytes(4096)
	if len(b) != 4096 {
		t.Fatalf("len = %d", len(b))
	}
	b[0] = 0xff
	PutBytes(b)
	c := Bytes(4096)
	if c[0] != 0 {
		t.Fatal("recycled bytes not zeroed")
	}
}

func TestTinyBuffersNotRetained(t *testing.T) {
	// Must not panic or misbehave; small buffers are simply dropped.
	PutFloat(make([]float64, 8))
	PutComplex(nil)
	PutBytes(make([]byte, 16))
}

// TestRoundTripAllocFree pins the boxing fix: at steady state a
// Get+Put round trip through each pool allocates nothing — the box a
// Get empties carries the next Put's buffer.
func TestRoundTripAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops Puts at random")
	}
	PutComplex(make([]complex128, 4096))
	PutFloat(make([]float64, 4096))
	PutBytes(make([]byte, 4096))
	for name, f := range map[string]func(){
		"Complex":       func() { PutComplex(Complex(4096)) },
		"ComplexUninit": func() { PutComplex(ComplexUninit(4096)) },
		"Float":         func() { PutFloat(Float(4096)) },
		"FloatUninit":   func() { PutFloat(FloatUninit(4096)) },
		"Bytes":         func() { PutBytes(Bytes(4096)) },
	} {
		if allocs := testing.AllocsPerRun(100, f); allocs != 0 {
			t.Errorf("%s: %v allocations per Get+Put", name, allocs)
		}
	}
}

// TestConcurrentRoundTripsExclusive: goroutines cycling buffers through
// the pool at once never hold the same buffer — each one's stamp
// survives a yield — so recycled boxes never hand one buffer out twice.
func TestConcurrentRoundTripsExclusive(t *testing.T) {
	var wg sync.WaitGroup
	for g := 1; g <= 4; g++ {
		wg.Add(1)
		go func(id complex128) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				buf := ComplexUninit(2048)
				for j := range buf {
					buf[j] = id
				}
				runtime.Gosched()
				for j := range buf {
					if buf[j] != id {
						t.Errorf("buffer shared between goroutines: %v overwrote %v", buf[j], id)
						return
					}
				}
				PutComplex(buf)
			}
		}(complex(float64(g), 0))
	}
	wg.Wait()
}
