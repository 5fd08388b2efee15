package runtime

import "container/heap"

// Priority selects how the manager orders ready operations.
type Priority int

const (
	// FIFO dispatches ready operations in discovery order — the behaviour
	// of the paper's manager thread.
	FIFO Priority = iota
	// CriticalPath dispatches the ready operation with the longest
	// remaining dependency chain first. On tiled QR this favours the panel
	// chain (GEQRT/TSQRT), pulling the next panel forward exactly the way
	// dynamic runtimes (the paper's related work [11]) do, at the cost of
	// the manager maintaining a heap.
	CriticalPath
)

// String names the policy.
func (p Priority) String() string {
	if p == CriticalPath {
		return "critical-path"
	}
	return "fifo"
}

// remainingDepth computes, for every task, the length of the longest chain
// of successors hanging off it (inclusive). Processing tasks in reverse
// index order is valid because dependencies always point backwards.
func remainingDepth(succs [][]int) []int {
	depth := make([]int, len(succs))
	for i := len(succs) - 1; i >= 0; i-- {
		best := 0
		for _, s := range succs[i] {
			if depth[s] > best {
				best = depth[s]
			}
		}
		depth[i] = best + 1
	}
	return depth
}

// opHeap is a max-heap of task ids ordered by remaining depth (ties broken
// by schedule order, keeping the heap deterministic). It is the
// CriticalPath dispatchQueue.
type opHeap struct {
	ids   []int
	depth []int
}

func (h *opHeap) Len() int { return len(h.ids) }
func (h *opHeap) Less(i, j int) bool {
	a, b := h.ids[i], h.ids[j]
	if h.depth[a] != h.depth[b] {
		return h.depth[a] > h.depth[b]
	}
	return a < b
}
func (h *opHeap) Swap(i, j int) { h.ids[i], h.ids[j] = h.ids[j], h.ids[i] }
func (h *opHeap) Push(x any)    { h.ids = append(h.ids, x.(int)) }
func (h *opHeap) Pop() any      { x := h.ids[len(h.ids)-1]; h.ids = h.ids[:len(h.ids)-1]; return x }
func (h *opHeap) push(id int)   { heap.Push(h, id) }
func (h *opHeap) pop() int      { return heap.Pop(h).(int) }

var (
	_ heap.Interface = (*opHeap)(nil)
	_ dispatchQueue  = (*opHeap)(nil)
)
