package ooc_test

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"spblock/internal/la"
	"spblock/internal/nmode"
	"spblock/internal/ooc"
)

// stallSource holds ReadBlock of block stallID until release is
// closed, and closes read once block afterID has been read.
type stallSource struct {
	ooc.BlockSource
	stallID, afterID int
	read, release    chan struct{}
}

func (s *stallSource) ReadBlock(b ooc.BlockInfo, dst []byte) error {
	if b.ID == s.stallID {
		<-s.release
	}
	err := s.BlockSource.ReadBlock(b, dst)
	if b.ID == s.afterID {
		close(s.read)
	}
	return err
}

// TestDecoderClaimsOnlyWithSlot is the regression test for the
// reorder-ring race. With two slots and two decoders, block 1's read
// stalls while block 2 is read: one slot is held by the stalled block
// 1, the other by block 2 waiting in the ring, and the consumer waits
// for block 1. A decoder looking for more work must block on the free
// list without claiming block 3. A decoder that claims first and then
// waits for a slot can be overtaken by the others, which fill block
// i+depth into ring[i%depth] ahead of block i; the claim counter shows
// that state deterministically, without waiting for the scheduler to
// produce the overtake.
func TestDecoderClaimsOnlyWithSlot(t *testing.T) {
	x := randTensor(31, []int{12, 11, 10}, 600)
	grid := []int{2, 2, 2}
	stage, man := stageTensor(t, x, grid)
	if len(man.Blocks) < 4 {
		t.Fatalf("need at least 4 staged blocks, got %d", len(man.Blocks))
	}
	inner, err := ooc.OpenSource(stage)
	if err != nil {
		t.Fatal(err)
	}
	src := &stallSource{
		BlockSource: inner,
		stallID:     man.Blocks[1].ID,
		afterID:     man.Blocks[2].ID,
		read:        make(chan struct{}),
		release:     make(chan struct{}),
	}
	e, err := ooc.NewEngine(src, ooc.Options{Decoders: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if e.Depth() != 2 || e.Decoders() != 2 {
		t.Fatalf("depth %d decoders %d, want 2 and 2", e.Depth(), e.Decoders())
	}

	const rank = 6
	factors := make([]*la.Matrix, len(x.Dims))
	rng := rand.New(rand.NewSource(32))
	for m, d := range x.Dims {
		factors[m] = la.NewMatrix(d, rank)
		for i := range factors[m].Data {
			factors[m].Data[i] = rng.NormFloat64()
		}
	}
	got := la.NewMatrix(x.Dims[0], rank)
	done := make(chan error, 1)
	go func() { done <- e.MTTKRP(0, factors, got) }()

	<-src.read
	// Block 1 is the consumer's next block, so at most blocks 1 and 2
	// may be claimed beyond it: 3 claims in all.
	const maxClaimed = 1 + 2
	// A decoder that claims before taking a slot claims block 3 right
	// after handing off block 2; 50 ms bounds the wait for that claim.
	for start := time.Now(); time.Since(start) < 50*time.Millisecond; time.Sleep(time.Millisecond) {
		if c := e.Claimed(); c > maxClaimed {
			t.Errorf("decoders claimed %d blocks while the consumer waits for block 1 with depth 2; want at most %d", c, maxClaimed)
			break
		}
	}
	close(src.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	ex, err := nmode.NewExecutor(x, 0, nmode.Options{Grid: grid, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := la.NewMatrix(x.Dims[0], rank)
	if err := ex.Run(factors, want); err != nil {
		t.Fatal(err)
	}
	for i, v := range want.Data {
		if math.Float64bits(v) != math.Float64bits(got.Data[i]) {
			t.Fatalf("element %d differs: %v vs %v", i, got.Data[i], v)
		}
	}
}
