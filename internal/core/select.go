package core

// ranked is a selection candidate: a shard or machine ID with the key it
// is ranked by. Candidates order ascending by (key, id). IDs are unique,
// so this is a total order: a bounded selection over it keeps exactly the
// prefix a full sort would, in the same order.
type ranked struct {
	key float64
	id  int
}

// after reports whether a orders after b: larger key first, ID as the
// deterministic tie-break. Written with < and > so float keys are never
// compared for equality.
func (a ranked) after(b ranked) bool {
	if a.key > b.key {
		return true
	}
	if a.key < b.key {
		return false
	}
	return a.id > b.id
}

// keepLowest offers e to h, a bounded max-heap holding the k lowest
// candidates offered so far: the root is the worst of them and is evicted
// whenever a better candidate arrives. Selecting the k lowest of n costs
// O(n log k) instead of the O(n log n) of sorting all n. Callers reuse h
// across calls (truncated to h[:0]) and finish with sortLowest.
//
//rexlint:noalloc
func keepLowest(h []ranked, k int, e ranked) []ranked {
	if len(h) < k {
		//rexlint:ignore alloccheck amortized growth of a reused buffer; steady state stays within capacity
		h = append(h, e)
		for j := len(h) - 1; j > 0; { // sift up
			parent := (j - 1) / 2
			if !h[j].after(h[parent]) {
				break
			}
			h[j], h[parent] = h[parent], h[j]
			j = parent
		}
		return h
	}
	if len(h) == 0 || !h[0].after(e) {
		return h
	}
	h[0] = e
	siftDown(h)
	return h
}

// sortLowest heap-sorts a keepLowest heap in place into ascending (key,
// id) order — the order a full sort of every offered candidate would list
// them in.
//
//rexlint:noalloc
func sortLowest(h []ranked) {
	for end := len(h) - 1; end > 0; end-- {
		h[0], h[end] = h[end], h[0]
		siftDown(h[:end])
	}
}

// siftDown restores the max-heap property below h's root.
//
//rexlint:noalloc
func siftDown(h []ranked) {
	for j := 0; ; {
		l, r := 2*j+1, 2*j+2
		big := j
		if l < len(h) && h[l].after(h[big]) {
			big = l
		}
		if r < len(h) && h[r].after(h[big]) {
			big = r
		}
		if big == j {
			return
		}
		h[j], h[big] = h[big], h[j]
		j = big
	}
}
