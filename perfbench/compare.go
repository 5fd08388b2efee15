package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// benchSpec is the part of BENCHMARK.json compare mode needs.
type benchSpec struct {
	RunSeconds float64      `json:"run_seconds"`
	EndToEnd   []specMetric `json:"end_to_end"`
	PerLayer   []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (benchSpec, error) {
	var sp benchSpec
	b, err := os.ReadFile(path)
	if err != nil {
		return sp, fmt.Errorf("read spec: %w", err)
	}
	if err := json.Unmarshal(b, &sp); err != nil {
		return sp, fmt.Errorf("parse spec %s: %w", path, err)
	}
	return sp, nil
}

// readRecords collects the run records from files holding perfbench output.
func readRecords(paths []string) ([]record, error) {
	var recs []record
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return nil, fmt.Errorf("read runs: %w", err)
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 1<<20), 16<<20)
		for sc.Scan() {
			line, ok := strings.CutPrefix(sc.Text(), recordPrefix+" ")
			if !ok {
				continue
			}
			var r record
			if err := json.Unmarshal([]byte(line), &r); err != nil {
				f.Close()
				return nil, fmt.Errorf("%s: bad record: %w", p, err)
			}
			recs = append(recs, r)
		}
		err = sc.Err()
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("read %s: %w", p, err)
		}
	}
	return recs, nil
}

// Verdicts of a comparison.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	unresolved = "unresolved"
	regressed  = "regressed"
)

// verdict is the decision for one (workload, metric) pair.
type verdict struct {
	workload, metric string
	baseMed, headMed float64
	baseQ1, baseQ3   float64
	pairs, wins      int
	alternating      bool
	decision         string
	// note says why the failure rule overrode the A/B decision.
	note string
}

// side is one run's value of a metric.
type side struct {
	seed  int64
	start time.Time
	v     float64
}

// decide applies the A/B rule. A gain needs at least 10 pairs of runs on
// the same seeds, alternating which side ran first, with the change winning
// at least 9 in 10 of them and the medians differing by more than the
// parent's interquartile range. Otherwise, with a bound: unchanged when the
// change's median is no worse than the parent's by more than the bound,
// provided the parent's own spread (IQR / median) is within the bound;
// regressed when it is worse by more. A spread wider than the bound leaves
// the metric unresolved, unless every run of the change reads better than
// every run of the parent. Without a bound only the symmetric loss rule can
// call a regression.
func decide(base, head []side, higherBetter bool, bound *float64) verdict {
	var v verdict
	vals := func(xs []side) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x.v
		}
		return out
	}
	bv, hv := vals(base), vals(head)
	v.baseMed, v.headMed = median(bv), median(hv)
	v.baseQ1, v.baseQ3 = quartiles(bv)
	better := func(a, b float64) bool {
		if higherBetter {
			return a > b
		}
		return a < b
	}
	bySeed := map[int64]side{}
	for _, b := range base {
		bySeed[b.seed] = b
	}
	baseFirst, losses := 0, 0
	for _, h := range head {
		b, ok := bySeed[h.seed]
		if !ok {
			continue
		}
		v.pairs++
		if b.start.Before(h.start) {
			baseFirst++
		}
		switch {
		case better(h.v, b.v):
			v.wins++
		case better(b.v, h.v):
			losses++
		}
	}
	v.alternating = v.pairs > 0 && abs(float64(2*baseFirst-v.pairs)) <= 1
	iqr := v.baseQ3 - v.baseQ1
	gap := abs(v.headMed - v.baseMed)
	decisive := func(n int) bool { return v.pairs >= 10 && v.alternating && 10*n >= 9*v.pairs && gap > iqr }
	switch {
	case decisive(v.wins) && better(v.headMed, v.baseMed):
		v.decision = improved
		return v
	case bound == nil:
		v.decision = unresolved
		if decisive(losses) && better(v.baseMed, v.headMed) {
			v.decision = regressed
		}
		return v
	}
	if v.baseMed == 0 {
		v.decision = unresolved
		if v.headMed == 0 {
			v.decision = unchanged
		}
		return v
	}
	worse := (v.headMed - v.baseMed) / abs(v.baseMed)
	if higherBetter {
		worse = -worse
	}
	spread := iqr / abs(v.baseMed)
	switch {
	case spread <= *bound && worse > *bound:
		v.decision = regressed
	case spread <= *bound:
		v.decision = unchanged
	case allBetter(hv, bv, better):
		v.decision = unchanged
	default:
		v.decision = unresolved
	}
	return v
}

func allBetter(head, base []float64, better func(a, b float64) bool) bool {
	for _, h := range head {
		for _, b := range base {
			if !better(h, b) {
				return false
			}
		}
	}
	return len(head) > 0 && len(base) > 0
}

// compareMain is `perfbench compare`: it reads the parent's and the
// change's runs and prints the verdict for every (workload, metric) pair
// BENCHMARK.json defines. Exit status 1 when any pair regressed.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition with the metrics and bounds")
	basePaths := fs.String("base", "", "comma-separated files with the parent's run output")
	headPaths := fs.String("head", "", "comma-separated files with the change's run output")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *basePaths == "" || *headPaths == "" {
		fmt.Fprintln(stderr, "perfbench compare: -base and -head are required")
		return 2
	}
	sp, err := loadSpec(*specPath)
	if err == nil {
		var base, head []record
		if base, err = readRecords(strings.Split(*basePaths, ",")); err == nil {
			head, err = readRecords(strings.Split(*headPaths, ","))
		}
		if err == nil {
			var out []verdict
			if out, err = compareRuns(sp, base, head); err == nil {
				return printVerdicts(stdout, out)
			}
		}
	}
	fmt.Fprintf(stderr, "perfbench compare: %v\n", err)
	return 2
}

// compareRuns decides every (workload, metric) pair present on both sides.
// Runs from different hosts are refused, and so are runs of another length
// than BENCHMARK.json's run_seconds, at which the bounds were measured.
// Failed jobs override the A/B decision: a workload on which the change
// fails more jobs than the parent regressed on every metric, and one on
// which the change fails any job claims no gain.
func compareRuns(sp benchSpec, base, head []record) ([]verdict, error) {
	if len(base) == 0 || len(head) == 0 {
		return nil, fmt.Errorf("need runs on both sides (base %d, head %d)", len(base), len(head))
	}
	ref := base[0].Fingerprint
	baseFails, headFails := map[string]int{}, map[string]int{}
	for i, r := range append(append([]record(nil), base...), head...) {
		if !r.Fingerprint.sameHost(ref) {
			return nil, fmt.Errorf("runs from different hosts: %+v vs %+v", ref, r.Fingerprint)
		}
		if r.Seconds != sp.RunSeconds {
			return nil, fmt.Errorf("%s seed %d ran %g s, want run_seconds %g s", r.Workload, r.Seed, r.Seconds, sp.RunSeconds)
		}
		fails := baseFails
		if i >= len(base) {
			fails = headFails
		}
		fails[r.Workload] += r.Failed
		if !r.Correct && r.Failed == 0 {
			fails[r.Workload]++
		}
	}
	group := func(recs []record, trace int, metric string) map[string][]side {
		out := map[string][]side{}
		for _, r := range recs {
			m, ok := r.Metrics[metric]
			if r.Trace != trace || !ok {
				continue
			}
			start, _ := time.Parse(time.RFC3339Nano, r.Start)
			out[r.Workload] = append(out[r.Workload], side{seed: r.Seed, start: start, v: m.Value})
		}
		return out
	}
	var out []verdict
	for trace, defs := range [][]specMetric{sp.EndToEnd, sp.PerLayer} {
		for _, d := range defs {
			bw, hw := group(base, trace, d.Name), group(head, trace, d.Name)
			for _, wl := range sortedKeys(bw) {
				if len(hw[wl]) == 0 {
					continue
				}
				v := decide(bw[wl], hw[wl], d.Better == "higher", d.Bound)
				v.workload, v.metric = wl, d.Name
				switch bf, hf := baseFails[wl], headFails[wl]; {
				case hf > bf:
					v.decision = regressed
					v.note = fmt.Sprintf(" (failed jobs: parent %d, change %d)", bf, hf)
				case hf > 0 && v.decision == improved:
					v.decision = unresolved
					v.note = fmt.Sprintf(" (change failed %d jobs)", hf)
				}
				out = append(out, v)
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].workload < out[j].workload })
	return out, nil
}

func printVerdicts(w io.Writer, vs []verdict) int {
	code := 0
	fmt.Fprintf(w, "%-11s %-32s %14s %27s %14s %9s %s\n", "workload", "metric", "parent median", "parent [q1, q3]", "change median", "wins", "verdict")
	for _, v := range vs {
		alt := ""
		if v.pairs > 0 && !v.alternating {
			alt = " (runs not alternating)"
		}
		fmt.Fprintf(w, "%-11s %-32s %14.6g [%12.6g, %12.6g] %14.6g %4d/%-4d %s%s%s\n",
			v.workload, v.metric, v.baseMed, v.baseQ1, v.baseQ3, v.headMed, v.wins, v.pairs, v.decision, v.note, alt)
		if v.decision == regressed {
			code = 1
		}
	}
	return code
}
