package main

import (
	"testing"
	"time"
)

// tiny returns a copy of the named workload with a small backlog.
func tiny(t *testing.T, name string, messages int) (*workloadSpec, *backlog, *oracle) {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	small := *w
	small.messages = messages
	bl, err := generate(small.products, messages, 7)
	if err != nil {
		t.Fatal(err)
	}
	return &small, bl, newOracle(name, bl.orders, bl.pad)
}

// On a tiny traced run the ledger passes its checks (no negative self
// time, every layer measured, the loop on a CPU), and the counters see each
// workload's layers.
func TestTracedLedger(t *testing.T) {
	for _, name := range []string{"filter", "join", "window"} {
		t.Run(name, func(t *testing.T) {
			w, bl, _ := tiny(t, name, 20_000)
			l, err := runSolo(w, bl, w.messages, modeTraced)
			if err != nil {
				t.Fatal(err)
			}
			if l.msgs != int64(w.messages) {
				t.Fatalf("solo run processed %d of %d messages", l.msgs, w.messages)
			}
			if err := l.check(); err != nil {
				t.Error(err)
			}
			t.Logf("thread CPU %.1f%% of the loop's %v", l.cpuShare()*100, time.Duration(l.loopWallNs))
			switch name {
			case "filter":
				if l.kv.reads+l.kv.writes+l.kv.scans != 0 || l.changelogRecords != 0 {
					t.Errorf("filter touched state: %+v", l.kv)
				}
			case "join":
				if l.kv.reads == 0 || l.kv.found != l.kv.reads || l.kv.writes != 0 {
					t.Errorf("join should only read, and find every product: %+v", l.kv)
				}
			case "window":
				if l.kv.scans == 0 || l.kv.writes == 0 || l.changelogRecords != l.kv.writes {
					t.Errorf("window should write through the changelog and scan: %+v, %d changelog records", l.kv, l.changelogRecords)
				}
			}
		})
	}
}

// The ledger check fails on a nested timer that measured more than the
// one around it, on an unmeasured layer and on a loop that was mostly off
// the CPU.
func TestLedgerCheckFails(t *testing.T) {
	good := ledger{
		msgs: 1, wallNs: 1000, pollNs: 100, routeNs: 800, commitNs: 50,
		decodeNs: 200, produceNs: 100, loopWallNs: 1100, loopCPUNs: 1000,
		kv: kvCounts{readNs: 100}, changelog: kvCounts{readNs: 150},
	}
	if err := good.check(); err != nil {
		t.Fatalf("good ledger: %v", err)
	}
	for name, mutate := range map[string]func(*ledger){
		"operators negative": func(l *ledger) { l.decodeNs = 700 },
		"changelog negative": func(l *ledger) { l.kv.readNs = 200 },
		"loop negative":      func(l *ledger) { l.routeNs, l.decodeNs = 900, 300 },
		"poll unmeasured":    func(l *ledger) { l.pollNs = 0 },
		"off the CPU":        func(l *ledger) { l.loopCPUNs = 200 },
		"CPU above wall":     func(l *ledger) { l.loopCPUNs = 1200 },
	} {
		l := good
		mutate(&l)
		if err := l.check(); err == nil {
			t.Errorf("%s: check passed", name)
		}
	}
}

// The untimed and passthrough solo runs process every message too.
func TestSoloModes(t *testing.T) {
	w, bl, _ := tiny(t, "window", 5_000)
	for _, mode := range []soloMode{modeUntimed, modePassthrough} {
		l, err := runSolo(w, bl, w.messages, mode)
		if err != nil {
			t.Fatal(err)
		}
		if l.msgs != int64(w.messages) || l.wallNs <= 0 || l.pollNs != 0 {
			t.Errorf("mode %d: %d messages in %d ns, poll timed %d ns", mode, l.msgs, l.wallNs, l.pollNs)
		}
	}
}

// A real SamzaSQL drain of a small backlog agrees with the oracle on every
// query, and so does the paced phase.
func TestTrialsAgreeWithOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full jobs")
	}
	for _, name := range []string{"filter", "join", "window"} {
		t.Run(name, func(t *testing.T) {
			w, bl, o := tiny(t, name, 20_000)
			c, err := newCluster(w, bl, w.messages)
			if err != nil {
				t.Fatal(err)
			}
			s, err := c.sqlTrial(w, o)
			if err != nil || s.reason != nil || s.failed != 0 || s.rate <= 0 {
				t.Fatalf("sql trial: %+v, %v", s, err)
			}
			n, err := c.nativeTrial(w, o, 0)
			if err != nil || n.reason != nil || n.failed != 0 {
				t.Fatalf("native trial: %+v, %v", n, err)
			}
			setup, prepare, err := c.setupTrial(w)
			if err != nil || setup <= prepare || prepare <= 0 {
				t.Fatalf("setup trial: %v s, prepare %v s, %v", setup, prepare, err)
			}
			w.pacedRate = 20_000
			pc, err := pacedPhase(w, bl, o, 700*time.Millisecond)
			if err != nil || pc.reason != nil || pc.failed != 0 || len(pc.latency) == 0 {
				t.Fatalf("paced phase: %d failed, %d samples, %v, %v", pc.failed, len(pc.latency), pc.reason, err)
			}
		})
	}
}
