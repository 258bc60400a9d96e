package main

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"text/tabwriter"
)

// printReport writes the human-readable tables and, as the last line, the
// JSON result: end-to-end metrics when untraced, per-layer metrics when
// traced. With more than one workload each metric name is prefixed with
// "<workload>/".
func printReport(w io.Writer, rs []*result, seed int64, traced bool) error {
	fmt.Fprintf(w, "# perfbench seed=%d traced=%v\n", seed, traced)
	for _, r := range rs {
		fmt.Fprintf(w, "# %s: %s\n", r.w.name, r.w.why)
		fmt.Fprintf(w, "# %s: %s calib_cpu_ns=%.4g calib_mem_ns=%.4g\n", r.w.name, r.host, r.calibCPU, r.calibMem)
		fmt.Fprintf(w, "# %s: %d runs checked, %d failed; %d timed blocks, %d beyond their trial's p90\n",
			r.w.name, r.tally.attempted, r.tally.failed, r.blocks, r.beyond)
		for _, p := range r.tally.problems {
			fmt.Fprintf(w, "# FAILED %s: %s\n", r.w.name, p)
		}
		if traced {
			fmt.Fprintf(w, "# %s: %d CPU profile samples; stress check: %s\n", r.w.name, r.samples, stressSummary(r.stress))
		}
	}

	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprint(tw, "workload\t")
	for _, m := range endToEnd {
		fmt.Fprintf(tw, "%s[%s]\t", m.name, m.unit)
	}
	fmt.Fprintln(tw)
	for _, r := range rs {
		fmt.Fprintf(tw, "%s\t", r.w.name)
		for _, m := range endToEnd {
			fmt.Fprintf(tw, "%.6g\t", r.e2e[m.name])
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()

	metrics, values := endToEnd, func(r *result) map[string]float64 { return r.e2e }
	if traced {
		metrics, values = perLayer, func(r *result) map[string]float64 { return r.layer }
		fmt.Fprintln(w)
		tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
		fmt.Fprint(tw, "layer metric\tunit\t")
		for _, r := range rs {
			fmt.Fprintf(tw, "%s\t", r.w.name)
		}
		fmt.Fprintln(tw)
		for _, m := range perLayer {
			fmt.Fprintf(tw, "%s\t%s\t", m.name, m.unit)
			for _, r := range rs {
				fmt.Fprintf(tw, "%.6g\t", r.layer[m.name])
			}
			fmt.Fprintln(tw)
		}
		tw.Flush()
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Metrics: map[string]value{}}
	for _, r := range rs {
		out.Attempted += r.tally.attempted
		out.Failed += r.tally.failed
		prefix := ""
		if len(rs) > 1 {
			prefix = r.w.name + "/"
		}
		for _, m := range metrics {
			out.Metrics[prefix+m.name] = value{values(r)[m.name], m.unit}
		}
	}
	out.Correct = out.Failed == 0
	b, err := json.Marshal(out)
	if err != nil {
		return fmt.Errorf("result: %w", err)
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

func stressSummary(findings []string) string {
	if len(findings) == 0 {
		return "ok"
	}
	return "DRIFTED: " + strings.Join(findings, "; ")
}
