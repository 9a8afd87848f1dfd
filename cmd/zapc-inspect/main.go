// Command zapc-inspect decodes a pod checkpoint image (as exported by
// `zapc -action snapshot -export DIR`) and prints its structure: the
// pod header, every process with its program kind, memory regions, and
// descriptor table, and every saved socket with its connection state,
// queue sizes, and protocol-control-block sequence numbers.
//
// It demonstrates the portability of the intermediate image format: the
// image is parsed in a fresh process with no access to the simulation
// that produced it.
//
// With -trace it instead reads JSONL trace logs (as written by
// `zapc-bench -fig trace` or Tracer.WriteJSONL) and prints the
// per-phase latency breakdown plus a report of dangling spans (opened
// but never closed — an abort or a truncated log); -strict exits
// non-zero when any are found. Malformed trace input is rejected with a
// diagnostic naming the offending line — never a panic.
//
// -critpath reconstructs the span DAG and prints the critical path of
// every coordinated operation (checkpoint cycles, suspend windows,
// failovers, restarts) with a per-pod straggler ranking for the fan-out
// phases; -chrome FILE additionally writes a Chrome trace-event export
// with the critical path highlighted red in its own lane (open in
// ui.perfetto.dev). -rto prints the RTO/RPO decomposition of every
// completed failover. All trace-derived output is byte-deterministic
// for a given log.
//
// Usage:
//
//	zapc-inspect pod0.img [pod1.img ...]
//	zapc-inspect -trace BENCH_trace.jsonl [more.jsonl ...]
//	zapc-inspect -trace -strict BENCH_trace.jsonl
//	zapc-inspect -critpath [-chrome crit.json] BENCH_trace.jsonl
//	zapc-inspect -rto BENCH_trace.jsonl
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"

	"zapc/internal/ckpt"
	"zapc/internal/metrics"
	"zapc/internal/netstack"
	"zapc/internal/sim"
	"zapc/internal/trace"
)

func main() {
	traceMode := flag.Bool("trace", false, "inspect JSONL trace logs: phase summary + dangling-span report")
	critMode := flag.Bool("critpath", false, "inspect JSONL trace logs: per-operation critical paths + straggler ranking")
	rtoMode := flag.Bool("rto", false, "inspect JSONL trace logs: RTO/RPO decomposition of completed failovers")
	strict := flag.Bool("strict", false, "exit non-zero when any inspected trace has dangling spans")
	chromeOut := flag.String("chrome", "", "with -critpath: write a Chrome trace-event export with the critical path highlighted to FILE")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: zapc-inspect <image-file> ...")
		fmt.Fprintln(os.Stderr, "       zapc-inspect -trace [-strict] <trace.jsonl> ...")
		fmt.Fprintln(os.Stderr, "       zapc-inspect -critpath [-chrome FILE] [-strict] <trace.jsonl> ...")
		fmt.Fprintln(os.Stderr, "       zapc-inspect -rto [-strict] <trace.jsonl> ...")
		os.Exit(2)
	}
	anyTraceMode := *traceMode || *critMode || *rtoMode
	if *chromeOut != "" && !*critMode {
		fmt.Fprintln(os.Stderr, "zapc-inspect: -chrome requires -critpath")
		os.Exit(2)
	}
	dangling := 0
	for _, path := range args {
		var err error
		if anyTraceMode {
			var n int
			n, err = inspectTraceFile(path, *traceMode, *critMode, *rtoMode, *chromeOut)
			dangling += n
		} else {
			err = inspect(path)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "zapc-inspect: %s: %v\n", path, err)
			os.Exit(1)
		}
	}
	if *strict && dangling > 0 {
		fmt.Fprintf(os.Stderr, "zapc-inspect: strict: %d dangling span(s)\n", dangling)
		os.Exit(1)
	}
}

// critOps are the coordinated operations -critpath decomposes, with the
// fan-out child phase each one ranks stragglers over.
var critOps = []struct{ op, fanout string }{
	{"supervisor/ckpt-cycle", "ckpt/agent"},
	{"supervisor/failover", "restart/agent"},
	{"ckpt/coordinated", "ckpt/agent"},
	{"restart/coordinated", "restart/agent"},
}

// inspectTraceFile runs the selected trace analyses over one JSONL log
// and returns the number of dangling spans found.
func inspectTraceFile(path string, phases, crit, rto bool, chromeOut string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	events, err := trace.ReadJSONL(f)
	if err != nil {
		return 0, err
	}
	d := trace.BuildDAG(events)
	dangling := d.DanglingSpans()
	if phases {
		var first, last int64
		instants := 0
		for i, ev := range events {
			if i == 0 || ev.T < first {
				first = ev.T
			}
			if ev.T > last {
				last = ev.T
			}
			if ev.Ph == trace.PhInstant {
				instants++
			}
		}
		fmt.Printf("%s: %d events (%d instants), timeline %s\n",
			path, len(events), instants, sim.Duration(last-first))
		fmt.Println(trace.PhaseSummary(events))
		if len(dangling) > 0 {
			fmt.Printf("dangling spans (%d): opened but never closed — excluded from phase totals\n", len(dangling))
			for _, s := range dangling {
				track := s.Track
				if track == "" {
					track = "-"
				}
				fmt.Printf("  id=%-4d %-10s %s (opened t=%v)\n", s.ID, track, s.Name, sim.Duration(s.Start))
			}
			fmt.Println()
		}
		if len(d.OrphanEnds) > 0 {
			fmt.Printf("orphan end events (%d): log starts mid-span\n\n", len(d.OrphanEnds))
		}
	}
	if crit {
		var allSegs []trace.Segment
		for _, top := range d.Top {
			for _, co := range critOps {
				if top.Name != co.op {
					continue
				}
				segs := trace.CriticalPath(top)
				allSegs = append(allSegs, segs...)
				fmt.Printf("%s: %s @ t=%v (%s)\n", path, top.Name,
					sim.Duration(top.Start), sim.Duration(top.Dur()))
				fmt.Print(trace.FormatCriticalPath(segs))
				if rank := stragglersUnder(top, co.fanout); len(rank) > 0 {
					fmt.Printf("straggler ranking (%s):\n", co.fanout)
					fmt.Print(trace.FormatStragglers(rank))
				}
				fmt.Println()
			}
		}
		if len(allSegs) == 0 {
			fmt.Printf("%s: no coordinated operations found\n", path)
		}
		if chromeOut != "" {
			data, err := trace.ChromeTraceHighlighted(events, allSegs)
			if err != nil {
				return len(dangling), err
			}
			if err := os.WriteFile(chromeOut, data, 0o644); err != nil {
				return len(dangling), err
			}
			fmt.Printf("wrote %s (critical path highlighted; open in ui.perfetto.dev)\n", chromeOut)
		}
	}
	if rto {
		reports := d.FailoverReports()
		if len(reports) == 0 {
			fmt.Printf("%s: no completed failover in trace\n", path)
		}
		for i, r := range reports {
			fmt.Printf("%s: failover %d @ t=%v\n", path, i+1, sim.Duration(r.MissT))
			fmt.Println(r.Summary())
		}
	}
	return len(dangling), nil
}

// stragglersUnder ranks the named fan-out children found under op,
// descending one level into an adopted coordinated operation if the
// agents hang off it rather than off op directly.
func stragglersUnder(op *trace.SpanNode, childName string) []trace.Straggler {
	if rank := trace.StragglerRanking(op, childName); len(rank) > 0 {
		return rank
	}
	for _, c := range op.Children {
		if rank := trace.StragglerRanking(c, childName); len(rank) > 0 {
			return rank
		}
	}
	return nil
}

func inspect(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	img, err := ckpt.DecodeImageFrom(bytes.NewReader(data), 0)
	if err != nil {
		return err
	}
	fmt.Printf("%s: pod %q\n", path, img.PodName)
	fmt.Printf("  virtual IP     %v\n", img.VIP)
	fmt.Printf("  virtual clock  %v\n", img.VirtualTime)
	fmt.Printf("  image size     %s (%d bytes)\n", metrics.HumanBytes(int64(len(data))), len(data))
	fmt.Printf("  app payload    %s\n", metrics.HumanBytes(img.MemoryBytes()))

	fmt.Printf("  processes (%d):\n", len(img.Procs))
	for _, p := range img.Procs {
		fmt.Printf("    vpid %-3d kind=%-14s program-state=%s\n",
			p.VPID, p.Kind, metrics.HumanBytes(int64(len(p.ProgData))))
		for _, r := range p.Regions {
			fmt.Printf("      region %-8s %s\n", r.Name, metrics.HumanBytes(int64(len(r.Data))))
		}
		for _, fd := range p.FDs {
			fmt.Printf("      fd %-3d -> socket slot %d\n", fd.FD, fd.Slot)
		}
	}

	fmt.Printf("  sockets (%d):\n", len(img.Net.Sockets))
	for _, s := range img.Net.Sockets {
		switch {
		case s.Proto == netstack.TCP && s.State == netstack.StateListening:
			fmt.Printf("    slot %-2d tcp listening %v (backlog %d)\n", s.Slot, s.Local, s.ListenBacklog)
		case s.Proto == netstack.TCP:
			flags := ""
			if s.ShutWrite {
				flags += " shutW"
			}
			if s.PeerClosed {
				flags += " peerClosed"
			}
			if s.AppClosed {
				flags += " appClosed"
			}
			if s.PendingAcceptOf >= 0 {
				flags += fmt.Sprintf(" pendingAcceptOf=%d", s.PendingAcceptOf)
			}
			var sendBytes int
			for _, c := range s.SendChunks {
				sendBytes += len(c.Data)
			}
			fmt.Printf("    slot %-2d tcp %v %v->%v recvQ=%dB oob=%dB sendQ=%dB pcb{sent=%d acked=%d recv=%d}%s\n",
				s.Slot, s.State, s.Local, s.Remote,
				len(s.RecvData), len(s.OOBData), sendBytes,
				s.PCB.SndNxt, s.PCB.SndUna, s.PCB.RcvNxt, flags)
		case s.Proto == netstack.UDP:
			fmt.Printf("    slot %-2d udp %v->%v datagrams=%d\n",
				s.Slot, s.Local, s.Remote, len(s.Datagrams))
		case s.Proto == netstack.RAW:
			fmt.Printf("    slot %-2d raw proto=%d datagrams=%d\n",
				s.Slot, s.RawProto, len(s.Datagrams))
		}
		saved := 0
		for _, val := range s.Opts {
			if val != 0 {
				saved++
			}
		}
		if saved > 0 && s.Proto == netstack.TCP && s.State == netstack.StateEstablished {
			fmt.Printf("      options: %d saved (full get/setsockopt set)\n", saved)
		}
	}
	return nil
}
