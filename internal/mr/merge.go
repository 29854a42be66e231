package mr

// mergeRuns streams k key-sorted runs out in global key order (ties broken
// by run index, so the merge is stable across runs). k is the reduce task
// count, a handful, so each step scans the k heads for the smallest key.
func mergeRuns[T any](runs [][]T, key func(*T) string, emit func(*T)) {
	pos := make([]int, len(runs))
	for {
		best, bestKey := -1, ""
		for ri, run := range runs {
			if pos[ri] < len(run) {
				if k := key(&run[pos[ri]]); best < 0 || k < bestKey {
					best, bestKey = ri, k
				}
			}
		}
		if best < 0 {
			return
		}
		emit(&runs[best][pos[best]])
		pos[best]++
	}
}
