package serve

// minHeap is a binary min-heap of T ordered by T's before method: the event
// heap and the per-device ready heaps. Its sift steps are container/heap's
// (push sifts up from the end, pop swaps the root to the end and sifts down,
// init heapifies bottom-up), so any sequence of operations leaves the same
// slice layout container/heap would, equal keys included — without boxing
// every element through an interface.
type minHeap[T interface{ before(T) bool }] struct {
	items []T
}

func (h *minHeap[T]) len() int { return len(h.items) }

// push adds x; it allocates only when the backing slice grows.
//
//vrex:noalloc
func (h *minHeap[T]) push(x T) {
	h.items = append(h.items, x)
	h.up(len(h.items) - 1)
}

// pop removes and returns the minimum; the heap must be non-empty.
//
//vrex:noalloc
func (h *minHeap[T]) pop() T {
	n := len(h.items) - 1
	h.items[0], h.items[n] = h.items[n], h.items[0]
	h.down(0, n)
	x := h.items[n]
	h.items = h.items[:n]
	return x
}

// init restores the heap order after items was filled or filtered in bulk.
//
//vrex:noalloc
func (h *minHeap[T]) init() {
	n := len(h.items)
	for i := n/2 - 1; i >= 0; i-- {
		h.down(i, n)
	}
}

//vrex:noalloc
func (h *minHeap[T]) up(j int) {
	items := h.items
	for {
		i := (j - 1) / 2 // parent
		if i == j || !items[j].before(items[i]) {
			break
		}
		items[i], items[j] = items[j], items[i]
		j = i
	}
}

//vrex:noalloc
func (h *minHeap[T]) down(i, n int) {
	items := h.items
	for {
		j := 2*i + 1
		if j >= n || j < 0 { // j < 0 after int overflow
			break
		}
		if j2 := j + 1; j2 < n && items[j2].before(items[j]) {
			j = j2 // right child
		}
		if !items[j].before(items[i]) {
			break
		}
		items[i], items[j] = items[j], items[i]
		i = j
	}
}
