package trace

import (
	"bytes"
	"testing"

	"repro/internal/ckpt"
)

// refsFor is how far the block tests draw a profile's stream: past
// h264ref's first two phase switches (each adds a Zipf sampler in the
// middle of a block), and well into every other profile's steady
// state.
func refsFor(p Profile) int {
	if p.PhaseLenRefs > 0 {
		return 2*p.PhaseLenRefs + 50_000
	}
	return 30_000
}

// blockSizes are cycled by the block tests so that block edges fall
// at irregular positions, never on a phase switch by construction.
var blockSizes = []int{4093, 1, 512, 777, 4096}

// stateOf serialises g's state for exact comparison.
func stateOf(g *Generator) []byte {
	w := ckpt.NewWriter()
	g.AppendState(w)
	return w.Bytes()
}

// TestFillMatchesNext: filling blocks of varying sizes, with a
// non-zero address offset, yields exactly the references successive
// Next calls return, and leaves the generator in the same state, for
// every profile.
func TestFillMatchesNext(t *testing.T) {
	const offset = 3 << 44
	for _, p := range Profiles() {
		fill, next := MustNewGenerator(p, 7), MustNewGenerator(p, 7)
		total := refsFor(p)
		for done, k := 0, 0; done < total; k++ {
			b := NewBlock(blockSizes[k%len(blockSizes)])
			b.Offset = offset
			fill.Fill(b)
			for i := range b.Addr {
				r := next.Next()
				if b.Addr[i] != r.Addr+offset || b.Gap[i] != r.Gap || b.Write[i] != r.Write {
					t.Fatalf("%s: ref %d: block (%#x, %d, %v), Next (%#x, %d, %v)",
						p.Name, done+i, b.Addr[i], b.Gap[i], b.Write[i], r.Addr+offset, r.Gap, r.Write)
				}
			}
			done += len(b.Addr)
		}
		if !bytes.Equal(stateOf(fill), stateOf(next)) {
			t.Fatalf("%s: generator state after Fill differs from after Next", p.Name)
		}
	}
}

// TestRewind: with blocks filled past the one being read (as a
// producer runs ahead), rewinding into that block restores exactly the
// state of a generator that drew only up to the rewind point, for
// every profile and for positions at the block's start, inside it and
// at its end. Around h264ref's phase switches the rewound block
// straddles the switch, so rewinding before it must drop the sampler
// the switch created.
func TestRewind(t *testing.T) {
	for _, p := range Profiles() {
		starts := []int{0, 9_999}
		if p.PhaseLenRefs > 0 {
			starts = append(starts, p.PhaseLenRefs-100, 2*p.PhaseLenRefs-4000)
		}
		for _, start := range starts {
			for _, n := range []int{0, 1, 99, 2048, 4096} {
				g := MustNewGenerator(p, 11)
				for i := 0; i < start; i++ {
					g.Next()
				}
				b := NewBlock(4096)
				g.Fill(b)
				for k := 0; k < 3; k++ {
					g.Fill(NewBlock(4096))
				}
				g.Rewind(b, n)

				ref := MustNewGenerator(p, 11)
				for i := 0; i < start+n; i++ {
					ref.Next()
				}
				if !bytes.Equal(stateOf(g), stateOf(ref)) {
					t.Fatalf("%s: rewind to %d+%d: state differs from drawing that far", p.Name, start, n)
				}
				for i := 0; i < 5000; i++ {
					if a, r := g.Next(), ref.Next(); a != r {
						t.Fatalf("%s: rewind to %d+%d: ref %d after it: %+v, want %+v", p.Name, start, n, i, a, r)
					}
				}
			}
		}
	}
}

func BenchmarkGeneratorFill(b *testing.B) {
	p, _ := ProfileByName("sphinx")
	g := MustNewGenerator(p, 1)
	blk := NewBlock(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i += len(blk.Addr) {
		g.Fill(blk)
	}
}
