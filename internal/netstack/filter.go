package netstack

// Filter is the netfilter-style hook table attached to every stack. The
// checkpoint Agent uses it to disable all network activity to and from a
// pod while its state is saved, exactly as ZapC leverages Linux Netfilter
// to block the links listed in the pod's connection table. Rules block
// everything (pod freeze) or, on the INPUT chain, what arrives from one
// remote IP — the latter used for failure injection in tests.
type Filter struct {
	all     bool
	ingress map[IP]bool
}

// BlockAll installs a drop-everything rule.
func (f *Filter) BlockAll() { f.all = true }

// UnblockAll removes the drop-everything rule (targeted rules persist).
func (f *Filter) UnblockAll() { f.all = false }

// BlockIn drops only traffic arriving from the given remote IP.
func (f *Filter) BlockIn(remote IP) {
	if f.ingress == nil {
		f.ingress = make(map[IP]bool)
	}
	f.ingress[remote] = true
}

// Blocked reports whether any rule is active.
func (f *Filter) Blocked() bool { return f.all || len(f.ingress) > 0 }

func (f *Filter) blocksIngress(p *packet) bool { return f.all || f.ingress[p.src.IP] }
