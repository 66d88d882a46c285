package serve

import (
	"container/heap"
	"testing"

	"vrex/internal/mathx"
)

// heapItem has a small key range so equal keys are common; id tells equal
// keys apart when the layouts are compared.
type heapItem struct{ key, id int }

func (a heapItem) before(b heapItem) bool { return a.key < b.key }

// refHeap is the container/heap reference minHeap must track layout for
// layout.
type refHeap []heapItem

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].before(h[j]) }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(heapItem)) }
func (h *refHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// TestMinHeapMatchesContainerHeap drives minHeap and container/heap with
// the same random pushes, pops, bulk appends followed by init, and filters
// followed by init (the moveReady path), and requires the same popped items
// and the same slice layout after every operation — equal keys included.
func TestMinHeapMatchesContainerHeap(t *testing.T) {
	rng := mathx.NewRNG(7)
	var got minHeap[heapItem]
	var ref refHeap
	id := 0
	newItem := func() heapItem {
		id++
		return heapItem{key: rng.Intn(6), id: id}
	}
	for op := 0; op < 20000; op++ {
		switch r := rng.Intn(10); {
		case r < 5:
			x := newItem()
			got.push(x)
			heap.Push(&ref, x)
		case r < 8:
			if ref.Len() == 0 {
				continue
			}
			if g, w := got.pop(), heap.Pop(&ref).(heapItem); g != w {
				t.Fatalf("op %d: pop %+v, container/heap %+v", op, g, w)
			}
		case r < 9:
			for n := rng.Intn(8); n > 0; n-- {
				x := newItem()
				got.items = append(got.items, x)
				ref = append(ref, x)
			}
			got.init()
			heap.Init(&ref)
		default:
			drop := rng.Intn(6)
			kept := got.items[:0]
			for _, x := range got.items {
				if x.key != drop {
					kept = append(kept, x)
				}
			}
			got.items = kept
			ref = append(ref[:0], kept...)
			got.init()
			heap.Init(&ref)
		}
		if got.len() != ref.Len() {
			t.Fatalf("op %d: len %d, container/heap %d", op, got.len(), ref.Len())
		}
		for i := range ref {
			if got.items[i] != ref[i] {
				t.Fatalf("op %d: layout differs at %d: %+v vs %+v", op, i, got.items[i], ref[i])
			}
		}
	}
}

// TestMinHeapSteadyStateAllocs pins the event heap's push/pop at steady
// capacity, and one engine pop step, to zero allocations.
func TestMinHeapSteadyStateAllocs(t *testing.T) {
	var h minHeap[event]
	for i := 0; i < 64; i++ {
		h.push(event{at: float64(i % 7), seq: i})
	}
	seq := 64
	if n := testing.AllocsPerRun(1000, func() {
		ev := h.pop()
		ev.at += 3
		ev.seq = seq
		seq++
		h.push(ev)
	}); n != 0 {
		t.Fatalf("push/pop at steady capacity allocates %v times per op", n)
	}

	e := newEngine(fleetChurnConfig(t))
	if n := testing.AllocsPerRun(1000, func() { e.pop() }); n != 0 {
		t.Fatalf("engine pop step allocates %v times per op", n)
	}
}
