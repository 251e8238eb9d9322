package main

import (
	"fmt"
	"io"
)

// compareRecords prints one row per (workload, end-to-end metric) of two
// records — both medians, the ratio with its base, the bound and a
// verdict — and returns non-zero if any metric regressed.
//
// Verdicts: "regressed" when the new median is worse than the old by
// more than the bound; "unresolved" when either side's own spread
// (interquartile range over median) is wider than the bound, so the
// bound cannot be resolved either way; "ok" otherwise. Virtual-clock
// metrics of two records with one seed must agree exactly: any
// difference there is "regressed" when worse and "changed" when better,
// because a change that only speeds the engine up may not move them.
func compareRecords(oldPath, newPath string, stdout, stderr io.Writer) int {
	oldRec, err := readRecord(oldPath)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	newRec, err := readRecord(newPath)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	return printComparison(oldRec, newRec, stdout)
}

func printComparison(oldRec, newRec record, w io.Writer) int {
	fmt.Fprintf(w, "old: rev %s seed %d P=%d    new: rev %s seed %d P=%d\n",
		oldRec.Rev, oldRec.Seed, oldRec.P, newRec.Rev, newRec.Seed, newRec.P)
	if !oldRec.Comparable || !newRec.Comparable {
		fmt.Fprintln(w, "warning: a record is marked non-comparable (reduced size)")
	}
	sameSeed := oldRec.Seed == newRec.Seed
	if !sameSeed {
		fmt.Fprintln(w, "note: seeds differ, so virtual-clock metrics are held to their bound, not to exact equality")
	}
	fmt.Fprintf(w, "%-16s %-20s %14s %14s %18s %7s %7s  %s\n",
		"workload", "metric", "old", "new", "new/old", "bound", "spread", "verdict")
	byName := make(map[string]workloadRecord, len(newRec.Workloads))
	for _, wr := range newRec.Workloads {
		byName[wr.Name] = wr
	}
	regressed := false
	for _, o := range oldRec.Workloads {
		n, ok := byName[o.Name]
		if !ok {
			fmt.Fprintf(w, "%-16s missing from the new record\n", o.Name)
			regressed = true
			continue
		}
		for _, d := range endToEnd {
			om, nm := o.EndToEnd[d.Name], n.EndToEnd[d.Name]
			verdict, spread := judge(d, om, nm, sameSeed)
			if verdict == "regressed" {
				regressed = true
			}
			fmt.Fprintf(w, "%-16s %-20s %14.6g %14.6g %11.4fx of old %6.1f%% %6.1f%%  %s\n",
				o.Name, d.Name, om.Value, nm.Value, ratio(nm.Value, om.Value), 100*d.Bound, 100*spread, verdict)
		}
		fmt.Fprintf(w, "%-16s %-20s %10d/%-3d %10d/%-3d\n", o.Name, "failed operations", o.Failed, o.Attempted, n.Failed, n.Attempted)
		if ratio(float64(n.Failed), float64(n.Attempted)) > ratio(float64(o.Failed), float64(o.Attempted)) {
			regressed = true
		}
	}
	if regressed {
		fmt.Fprintln(w, "verdict: regressed")
		return 1
	}
	fmt.Fprintln(w, "verdict: no regression")
	return 0
}

// judge returns the verdict for one metric and the wider of the two
// sides' spreads.
func judge(d metricDef, om, nm measurement, sameSeed bool) (string, float64) {
	spread := summary{Median: om.Value, Q1: om.Q1, Q3: om.Q3}.spread()
	if s := (summary{Median: nm.Value, Q1: nm.Q1, Q3: nm.Q3}).spread(); s > spread {
		spread = s
	}
	worse := nm.Value - om.Value // how much worse the new side is, in the metric's unit
	if d.Better == "higher" {
		worse = -worse
	}
	if d.exact && sameSeed {
		switch {
		case worse > 0:
			return "regressed", spread
		case worse < 0:
			return "changed", spread
		}
		return "ok", spread
	}
	switch {
	case spread > d.Bound:
		return "unresolved", spread
	case worse > d.Bound*om.Value:
		return "regressed", spread
	}
	return "ok", spread
}
