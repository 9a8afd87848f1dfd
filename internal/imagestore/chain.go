// Record-chain layout and the one loop that reads it, shared by every
// consumer that must walk a generation directory in restore order:
// restart from a store (cluster.LoadImages), the supervisor's commit
// check and recovery load, and the warm-standby replication plane all
// group records into per-pod chains by the same file-name conventions
// (<pod>.img, <pod>.rNN.delta pre-copy rounds, <pod>.delta residual) and
// read each through PodChain.Read.
package imagestore

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"zapc/internal/ckpt"
)

// residualRank is the chain rank of a pod's residual delta, which
// closes its chain.
const residualRank = 1 << 30

// RecordPath names one record of a pod's chain in generation directory
// dir: a full record is <pod>.img, the delta of live pre-copy round
// N+1 (round N > 0) <pod>.rNN.delta, any other delta <pod>.delta.
func RecordPath(dir, pod string, full bool, round int) string {
	switch {
	case full:
		return dir + "/" + pod + ".img"
	case round > 0:
		return fmt.Sprintf("%s/%s.r%02d.delta", dir, pod, round)
	}
	return dir + "/" + pod + ".delta"
}

// parseRecord is RecordPath's inverse: the pod a record path belongs to
// and the record's rank in that pod's chain. A path of no known layout
// is its base name, ranked as a residual.
func parseRecord(path string) (pod string, rank int) {
	base := path[strings.LastIndex(path, "/")+1:]
	if pod, ok := strings.CutSuffix(base, ".img"); ok {
		return pod, 0
	}
	pod = strings.TrimSuffix(base, ".delta")
	if i := strings.LastIndex(pod, ".r"); i >= 0 {
		if n, err := strconv.Atoi(pod[i+2:]); err == nil {
			return pod[:i], n
		}
	}
	return pod, residualRank
}

// ChainRank orders one pod's records within a generation for chain
// reconstruction: the full image first (rank 0), then pre-copy round
// deltas by round number, then the residual delta. Lexicographic store
// order is NOT restore order ("p.delta" < "p.img" < "p.r01.delta"), so
// the ordering must be explicit. Every rank above 0 is a delta.
func ChainRank(path string) int {
	_, rank := parseRecord(path)
	return rank
}

// PodOf extracts the pod name from a record path (see RecordPath).
// Unknown layouts return the path's base name.
func PodOf(path string) string {
	pod, _ := parseRecord(path)
	return pod
}

// PodChain is one pod's records in restore order.
type PodChain struct {
	Pod   string
	Paths []string
}

// PodChains groups one generation directory's files into per-pod record
// chains in restore order, sorted by pod name — map iteration order must
// not decide which pod's error surfaces first, the order trace events
// are emitted in, or restart placement. A stop-and-copy generation
// yields one-element chains; a pre-copy generation yields base + round
// deltas + residual.
func PodChains(files []string) []PodChain {
	byPod := make(map[string][]string)
	for _, f := range files {
		name := PodOf(f)
		byPod[name] = append(byPod[name], f)
	}
	chains := make([]PodChain, 0, len(byPod))
	for name, fs := range byPod {
		sort.Slice(fs, func(i, j int) bool { return ChainRank(fs[i]) < ChainRank(fs[j]) })
		chains = append(chains, PodChain{Pod: name, Paths: fs})
	}
	sort.Slice(chains, func(i, j int) bool { return chains[i].Pod < chains[j].Pod })
	return chains
}

// Read extends c with the chain's records, opened from st one at a time
// and closed before the next is opened: from the empty chain when Paths
// starts at the pod's full image, from a retained chain when Paths
// continues it. The records stay in the store and stream through the
// verifying decoder; only the image they materialize is kept. An error
// names the pod and the record it stopped at, and wraps what Chain.Next
// reported (ckpt.ErrCorruptImage, ckpt.ErrChainBroken) or the store's
// own error for a record that would not open; the chain returned with
// it is as far as the records linked.
func (pc PodChain) Read(st Store, c ckpt.Chain) (ckpt.Chain, error) {
	for _, path := range pc.Paths {
		rc, err := st.Open(path)
		if err == nil {
			c, err = c.Next(rc)
			rc.Close()
		}
		if err != nil {
			return c, fmt.Errorf("pod %s (%s): %w", pc.Pod, path, err)
		}
	}
	return c, nil
}
