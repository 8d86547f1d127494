package metrics

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// TextContentType is the Content-Type of the Prometheus text
// exposition format this package renders.
const TextContentType = "text/plain; version=0.0.4; charset=utf-8"

// Handler serves the registry's exposition at GET, with the version
// 0.0.4 text content type.
func Handler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", TextContentType)
		bw := bufio.NewWriter(w)
		r.WriteText(bw) //nolint:errcheck // a broken client connection is not actionable
		bw.Flush()
	})
}

// WriteText renders every registered family in the Prometheus text
// format: families in registration order, series within a family
// sorted by label values, so the output is deterministic for a given
// registry state.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, len(r.fams))
	copy(fams, r.fams)
	r.mu.Unlock()
	for _, f := range fams {
		if err := f.writeText(w); err != nil {
			return err
		}
	}
	return nil
}

func (f *family) writeText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n",
		f.name, escapeHelp(f.help), f.name, f.kind); err != nil {
		return err
	}
	if f.collect != nil {
		return f.writeSamples(w)
	}
	for _, h := range f.sortedHists() {
		if err := writeHistogram(w, f, h); err != nil {
			return err
		}
	}
	return nil
}

// writeSamples renders a func-backed family, sorting the collected
// samples by label values for determinism.
func (f *family) writeSamples(w io.Writer) error {
	samples := f.collect()
	sort.Slice(samples, func(i, j int) bool {
		return labelKey(samples[i].Labels) < labelKey(samples[j].Labels)
	})
	for _, s := range samples {
		if len(s.Labels) != len(f.labels) {
			return fmt.Errorf("metrics: %q collector returned %d label values, want %d", f.name, len(s.Labels), len(f.labels))
		}
		if _, err := fmt.Fprintf(w, "%s%s %s\n", f.name, labelString(f.labels, s.Labels, "", ""), formatValue(s.Value)); err != nil {
			return err
		}
	}
	return nil
}

// writeHistogram renders the cumulative _bucket series plus _sum and
// _count.
func writeHistogram(w io.Writer, f *family, h *Histogram) error {
	cum, count, sum := h.snapshot()
	for i, ub := range h.buckets {
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
			f.name, labelString(f.labels, h.lv, "le", formatValue(ub)), cum[i]); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
		f.name, labelString(f.labels, h.lv, "le", "+Inf"), count); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name, labelString(f.labels, h.lv, "", ""), formatValue(sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, labelString(f.labels, h.lv, "", ""), count)
	return err
}

// labelString renders {k="v",...}, appending the extra pair (the
// histogram "le") when extraName is non-empty; no labels renders as "".
func labelString(names, values []string, extraName, extraValue string) string {
	if len(names) == 0 && extraName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	if extraName != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraName)
		b.WriteString(`="`)
		b.WriteString(extraValue)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes a label value per the text format: backslash,
// double quote, and newline.
func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

// escapeHelp escapes a HELP string: backslash and newline.
func escapeHelp(s string) string {
	if !strings.ContainsAny(s, "\\\n") {
		return s
	}
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(s)
}

// lintLine matches one well-formed text-format line: a HELP/TYPE
// comment or a sample with an optional label set and a numeric value.
var lintLine = regexp.MustCompile(`^(# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]*( .*)?|[a-zA-Z_:][a-zA-Z0-9_:]*(\{([a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? (-?[0-9].*|[+-]Inf|NaN))$`)

// LintText validates an exposition body line by line against the text
// format's grammar and returns the offending lines (nil when clean).
// The service and gateway /metrics end-to-end tests use it to assert
// the whole scrape parses.
func LintText(text string) []string {
	var bad []string
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if !lintLine.MatchString(line) {
			bad = append(bad, line)
		}
	}
	return bad
}

// formatValue renders a sample value: integral values print without an
// exponent (counters read naturally), everything else in the shortest
// round-trip form.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
