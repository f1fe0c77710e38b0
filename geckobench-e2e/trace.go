package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"slices"
	"time"
)

// spanName names a span: a benchmark phase or one public geckoftl call.
type spanName uint8

const (
	spRound spanName = iota
	spSetup
	spMeasure
	spReboot
	spAudit
	spOpen
	spClose
	spWrite
	spRead
	spWriteBatch
	spReadBatch
	spTrimBatch
	spSubmitWrite
	spSubmitRead
	spWait
	spFlush
	spSnapshot
	spRestart
	spPowerFail
	spRecover
)

var spanNames = [...]string{
	spRound: "round", spSetup: "setup", spMeasure: "measure", spReboot: "reboot", spAudit: "audit",
	spOpen: "Open", spClose: "Close", spWrite: "Write", spRead: "Read",
	spWriteBatch: "WriteBatch", spReadBatch: "ReadBatch", spTrimBatch: "TrimBatch",
	spSubmitWrite: "SubmitWrite", spSubmitRead: "SubmitRead", spWait: "Ticket.Wait",
	spFlush: "Flush", spSnapshot: "Snapshot", spRestart: "Restart", spPowerFail: "PowerFail", spRecover: "Recover",
}

func (s spanName) String() string { return spanNames[s] }

// span is one recorded interval, in nanoseconds since the tracer started;
// parent indexes the enclosing span, -1 for none.
type span struct {
	parent     int32
	name       spanName
	start, end int64
}

// maxLeaves caps the call spans a run keeps in memory (24 MiB of spans);
// calls past it are counted, not recorded.
const maxLeaves = 1 << 20

// tracer keeps spans in memory and owns the CPU profile of a traced run.
// Phases nest as a stack; a public call is a leaf under the innermost open
// phase. All methods are no-ops on a nil tracer, which is how untraced
// rounds run.
type tracer struct {
	base     time.Time
	spans    []span
	leaves   int
	dropped  int
	stack    []int32
	dir      string
	workload string
	prof     *os.File
}

func startTracer(dir, workload string) (*tracer, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(filepath.Join(dir, workload+".cpu.pprof"))
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return &tracer{base: time.Now(), dir: dir, workload: workload, prof: f}, nil
}

func (t *tracer) since(at time.Time) int64 { return int64(at.Sub(t.base)) }

func (t *tracer) parent() int32 {
	if len(t.stack) == 0 {
		return -1
	}
	return t.stack[len(t.stack)-1]
}

// open starts a phase span and returns its id.
func (t *tracer) open(name spanName) int32 {
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{parent: t.parent(), name: name, start: t.since(time.Now()), end: -1})
	t.stack = append(t.stack, id)
	return id
}

// close ends the innermost phase span, id.
func (t *tracer) close(id int32) {
	t.spans[id].end = t.since(time.Now())
	t.stack = t.stack[:len(t.stack)-1]
}

// leaf records one public call that ran from t0 to t1.
func (t *tracer) leaf(name spanName, t0, t1 time.Time) {
	if t == nil {
		return
	}
	if t.leaves == maxLeaves {
		t.dropped++
		return
	}
	t.leaves++
	t.spans = append(t.spans, span{parent: t.parent(), name: name, start: t.since(t0), end: t.since(t1)})
}

func (t *tracer) profilePath() string { return t.prof.Name() }

// stop ends the CPU profile and writes the spans, as gzip-compressed CSV,
// beside it.
func (t *tracer) stop() error {
	pprof.StopCPUProfile()
	if err := t.prof.Close(); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(t.dir, t.workload+".spans.csv.gz"))
	if err != nil {
		return err
	}
	if t.dropped > 0 {
		fmt.Printf("tracer kept the first %d call spans and dropped %d\n", maxLeaves, t.dropped)
	}
	zw, err := gzip.NewWriterLevel(f, gzip.BestSpeed)
	if err != nil {
		f.Close()
		return err
	}
	w := bufio.NewWriter(zw)
	fmt.Fprintln(w, "id,parent,name,start_ns,end_ns")
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d,%d,%s,%d,%d\n", i, s.parent, s.name, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// callMedian is the median host duration, in nanoseconds, of the calls
// named name made directly inside measured phases; zero when there were
// none.
func (t *tracer) callMedian(name spanName) float64 {
	var ds []int64
	for _, s := range t.spans {
		if s.name == name && s.parent >= 0 && t.spans[s.parent].name == spMeasure {
			ds = append(ds, s.end-s.start)
		}
	}
	if len(ds) == 0 {
		return 0
	}
	slices.Sort(ds)
	return float64(ds[len(ds)/2])
}
