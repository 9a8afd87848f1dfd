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

// ChainRank orders one pod's records within a generation for chain
// reconstruction: the full image first, then pre-copy round deltas by
// round number, then the residual delta. Lexicographic store order is
// NOT restore order ("p.delta" < "p.img" < "p.r01.delta"), so the
// ordering must be explicit.
func ChainRank(path string) int {
	base := path[strings.LastIndex(path, "/")+1:]
	if strings.HasSuffix(base, ".img") {
		return 0
	}
	trimmed := strings.TrimSuffix(base, ".delta")
	if i := strings.LastIndex(trimmed, ".r"); i >= 0 {
		if n, err := strconv.Atoi(trimmed[i+2:]); err == nil {
			return n
		}
	}
	return 1 << 30 // the residual (plain .delta) closes the chain
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
