// Prometheus text exposition (format 0.0.4), a human-readable dump for
// the CLI -stats flags, and a lint parser that validates scraped
// output — the same parser the CI observability job runs against a
// live /metrics endpoint.
package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// escapeLabelValue escapes a label value per the exposition format:
// backslash, double-quote and newline.
func escapeLabelValue(v string) string {
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// escapeHelp escapes a HELP string: backslash and newline only.
func escapeHelp(v string) string {
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// labelString renders {a="x",b="y"} for the given names/values, with
// extra appended verbatim (used for the histogram le label). Empty
// input renders nothing.
func labelString(names, values []string, extra string) string {
	if len(names) == 0 && extra == "" {
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
		b.WriteString(escapeLabelValue(values[i]))
		b.WriteByte('"')
	}
	if extra != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extra)
	}
	b.WriteByte('}')
	return b.String()
}

// WritePrometheus renders every family in text exposition format,
// sorted by name, running per-family collectors first. This is the
// single source of /metrics: no caller may Fprintf its own series next
// to it.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	for _, f := range r.sortedFamilies() {
		if f.collect != nil {
			f.collect(familySetter{f: f})
		}
		f.mu.Lock()
		keys := append([]string(nil), f.order...)
		children := make([]*child, 0, len(keys))
		for _, k := range keys {
			children = append(children, f.children[k])
		}
		f.mu.Unlock()
		if len(children) == 0 {
			continue // a labeled family with no children yet emits nothing
		}
		// Deterministic series order within the family.
		sort.Slice(children, func(i, j int) bool {
			return strings.Join(children[i].values, labelSep) < strings.Join(children[j].values, labelSep)
		})
		fmt.Fprintf(bw, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.kind)
		for _, ch := range children {
			ls := labelString(f.labels, ch.values, "")
			switch f.kind {
			case KindCounter:
				if f.collect != nil {
					// Collector-driven counters render the full-precision
					// float (exposition counters are floats; integer values
					// still print as integers).
					fmt.Fprintf(bw, "%s%s %s\n", f.name, ls, formatFloat(ch.cf.Load()))
				} else {
					fmt.Fprintf(bw, "%s%s %d\n", f.name, ls, ch.c.Value())
				}
			case KindGauge:
				fmt.Fprintf(bw, "%s%s %s\n", f.name, ls, formatFloat(ch.g.Value()))
			case KindHistogram:
				cum, count, sum := ch.h.snapshot()
				for i, upper := range f.buckets {
					le := fmt.Sprintf(`le="%s"`, formatFloat(upper))
					fmt.Fprintf(bw, "%s_bucket%s %d\n", f.name, labelString(f.labels, ch.values, le), cum[i])
				}
				fmt.Fprintf(bw, "%s_bucket%s %d\n", f.name, labelString(f.labels, ch.values, `le="+Inf"`), cum[len(cum)-1])
				fmt.Fprintf(bw, "%s_sum%s %s\n", f.name, ls, formatFloat(sum))
				fmt.Fprintf(bw, "%s_count%s %d\n", f.name, ls, count)
			}
		}
	}
	return bw.Flush()
}

// DumpText writes a one-shot human-readable summary: counters and
// gauges as name = value, histograms as count/p50/p99/mean. This backs
// the CLI -stats flags.
func (r *Registry) DumpText(w io.Writer) {
	if r == nil {
		return
	}
	bw := bufio.NewWriter(w)
	defer bw.Flush()
	for _, f := range r.sortedFamilies() {
		if f.collect != nil {
			f.collect(familySetter{f: f})
		}
		f.mu.Lock()
		keys := append([]string(nil), f.order...)
		children := make([]*child, 0, len(keys))
		for _, k := range keys {
			children = append(children, f.children[k])
		}
		f.mu.Unlock()
		sort.Slice(children, func(i, j int) bool {
			return strings.Join(children[i].values, labelSep) < strings.Join(children[j].values, labelSep)
		})
		for _, ch := range children {
			name := f.name + labelString(f.labels, ch.values, "")
			switch f.kind {
			case KindCounter:
				if f.collect != nil {
					if v := ch.cf.Load(); v != 0 {
						fmt.Fprintf(bw, "%-64s %s\n", name, formatFloat(v))
					}
				} else if v := ch.c.Value(); v != 0 {
					fmt.Fprintf(bw, "%-64s %d\n", name, v)
				}
			case KindGauge:
				if v := ch.g.Value(); v != 0 {
					fmt.Fprintf(bw, "%-64s %s\n", name, formatFloat(v))
				}
			case KindHistogram:
				n := ch.h.Count()
				if n == 0 {
					continue
				}
				mean := ch.h.Sum() / float64(n)
				fmt.Fprintf(bw, "%-64s count=%d p50=%.6g p99=%.6g mean=%.6g\n",
					name, n, ch.h.Quantile(0.5), ch.h.Quantile(0.99), mean)
			}
		}
	}
}

// LintProblem is one violation found by Lint, with the 1-based line it
// was found on (0 for whole-exposition problems).
type LintProblem struct {
	Line int
	Msg  string
}

func (p LintProblem) String() string {
	if p.Line > 0 {
		return fmt.Sprintf("line %d: %s", p.Line, p.Msg)
	}
	return p.Msg
}

// Lint parses a text-format exposition and returns every violation it
// finds: series without HELP/TYPE, duplicate series, malformed lines,
// bad label escaping, counters named without the _total convention,
// histogram buckets that are non-monotonic or missing +Inf, and
// _count/_bucket{+Inf} disagreement. A clean scrape returns nil.
func Lint(r io.Reader) []LintProblem {
	var probs []LintProblem
	type famInfo struct {
		typ     string
		hasHelp bool
	}
	fams := make(map[string]*famInfo)
	seen := make(map[string]int) // full series (name+labels) -> line
	type histSeries struct {
		buckets []struct {
			le  float64
			n   float64
			raw string
		}
		count    float64
		hasCount bool
		line     int
	}
	hists := make(map[string]*histSeries)

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				probs = append(probs, LintProblem{lineNo, fmt.Sprintf("malformed comment line %q", line)})
				continue
			}
			name := fields[2]
			fi := fams[name]
			if fi == nil {
				fi = &famInfo{}
				fams[name] = fi
			}
			if fields[1] == "HELP" {
				if len(fields) < 4 || strings.TrimSpace(fields[3]) == "" {
					probs = append(probs, LintProblem{lineNo, fmt.Sprintf("metric %q has empty HELP", name)})
				}
				fi.hasHelp = true
			} else {
				if len(fields) < 4 {
					probs = append(probs, LintProblem{lineNo, fmt.Sprintf("metric %q has TYPE with no type", name)})
					continue
				}
				typ := strings.TrimSpace(fields[3])
				switch typ {
				case "counter", "gauge", "histogram", "summary", "untyped":
					fi.typ = typ
				default:
					probs = append(probs, LintProblem{lineNo, fmt.Sprintf("metric %q has unknown TYPE %q", name, typ)})
				}
			}
			continue
		}
		name, labels, value, err := parseSample(line)
		if err != nil {
			probs = append(probs, LintProblem{lineNo, err.Error()})
			continue
		}
		series := name + "{" + canonicalLabels(labels) + "}"
		if prev, dup := seen[series]; dup {
			probs = append(probs, LintProblem{lineNo, fmt.Sprintf("duplicate series %s (first at line %d)", series, prev)})
		}
		seen[series] = lineNo

		base := name
		suffix := ""
		for _, s := range []string{"_bucket", "_sum", "_count"} {
			if strings.HasSuffix(name, s) {
				if fi, ok := fams[strings.TrimSuffix(name, s)]; ok && fi.typ == "histogram" {
					base = strings.TrimSuffix(name, s)
					suffix = s
				}
				break
			}
		}
		fi := fams[base]
		if fi == nil || fi.typ == "" {
			probs = append(probs, LintProblem{lineNo, fmt.Sprintf("series %q has no TYPE line", name)})
		} else if !fi.hasHelp {
			probs = append(probs, LintProblem{lineNo, fmt.Sprintf("series %q has no HELP line", name)})
		}
		if fi != nil && fi.typ == "counter" && !strings.HasSuffix(base, "_total") {
			probs = append(probs, LintProblem{lineNo, fmt.Sprintf("counter %q does not end in _total", base)})
		}

		if fi != nil && fi.typ == "histogram" {
			var le string
			rest := make([]labelPair, 0, len(labels))
			for _, lp := range labels {
				if lp.name == "le" {
					le = lp.value
				} else {
					rest = append(rest, lp)
				}
			}
			key := base + "{" + canonicalLabels(rest) + "}"
			hs := hists[key]
			if hs == nil {
				hs = &histSeries{line: lineNo}
				hists[key] = hs
			}
			switch suffix {
			case "_bucket":
				ub, err := parseLe(le)
				if err != nil {
					probs = append(probs, LintProblem{lineNo, fmt.Sprintf("series %s: %v", key, err)})
					continue
				}
				hs.buckets = append(hs.buckets, struct {
					le  float64
					n   float64
					raw string
				}{ub, value, le})
			case "_count":
				hs.count = value
				hs.hasCount = true
			}
		}
	}
	if err := sc.Err(); err != nil {
		probs = append(probs, LintProblem{0, fmt.Sprintf("read: %v", err)})
	}

	// Histogram structural checks, in deterministic order.
	keys := make([]string, 0, len(hists))
	for k := range hists {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		hs := hists[k]
		if len(hs.buckets) == 0 {
			probs = append(probs, LintProblem{hs.line, fmt.Sprintf("histogram %s has no buckets", k)})
			continue
		}
		last := hs.buckets[len(hs.buckets)-1]
		if !math.IsInf(last.le, 1) {
			probs = append(probs, LintProblem{hs.line, fmt.Sprintf("histogram %s missing le=\"+Inf\" bucket", k)})
		}
		for i := 1; i < len(hs.buckets); i++ {
			if hs.buckets[i].le <= hs.buckets[i-1].le {
				probs = append(probs, LintProblem{hs.line,
					fmt.Sprintf("histogram %s buckets out of order: le=%q after le=%q", k, hs.buckets[i].raw, hs.buckets[i-1].raw)})
			}
			if hs.buckets[i].n < hs.buckets[i-1].n {
				probs = append(probs, LintProblem{hs.line,
					fmt.Sprintf("histogram %s bucket counts not monotonic at le=%q (%g < %g)", k, hs.buckets[i].raw, hs.buckets[i].n, hs.buckets[i-1].n)})
			}
		}
		if hs.hasCount && math.IsInf(last.le, 1) && last.n != hs.count {
			probs = append(probs, LintProblem{hs.line,
				fmt.Sprintf("histogram %s: _count %g != +Inf bucket %g", k, hs.count, last.n)})
		}
	}
	return probs
}

type labelPair struct{ name, value string }

func canonicalLabels(labels []labelPair) string {
	sorted := append([]labelPair(nil), labels...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].name < sorted[j].name })
	parts := make([]string, len(sorted))
	for i, lp := range sorted {
		parts[i] = lp.name + "=" + lp.value
	}
	return strings.Join(parts, ",")
}

func parseLe(le string) (float64, error) {
	if le == "" {
		return 0, fmt.Errorf("_bucket sample without le label")
	}
	if le == "+Inf" {
		return math.Inf(1), nil
	}
	v, err := strconv.ParseFloat(le, 64)
	if err != nil {
		return 0, fmt.Errorf("unparseable le %q", le)
	}
	return v, nil
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if !ok {
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" || strings.HasPrefix(s, "__") {
		return false
	}
	for i, r := range s {
		ok := r == '_' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// parseSample parses one sample line: name[{labels}] value [timestamp].
func parseSample(line string) (name string, labels []labelPair, value float64, err error) {
	i := strings.IndexAny(line, "{ ")
	if i < 0 {
		return "", nil, 0, fmt.Errorf("malformed sample line %q", line)
	}
	name = line[:i]
	if !validMetricName(name) {
		return "", nil, 0, fmt.Errorf("invalid metric name %q", name)
	}
	rest := line[i:]
	if rest[0] == '{' {
		rest = rest[1:]
		for {
			rest = strings.TrimLeft(rest, ",")
			if rest == "" {
				return "", nil, 0, fmt.Errorf("unterminated label set in %q", line)
			}
			if rest[0] == '}' {
				rest = rest[1:]
				break
			}
			eq := strings.IndexByte(rest, '=')
			if eq < 0 || len(rest) < eq+2 || rest[eq+1] != '"' {
				return "", nil, 0, fmt.Errorf("malformed label in %q", line)
			}
			ln := rest[:eq]
			if !validLabelName(ln) {
				return "", nil, 0, fmt.Errorf("invalid label name %q in %q", ln, line)
			}
			// Scan the quoted value honoring escapes.
			j := eq + 2
			var val strings.Builder
			closed := false
			for j < len(rest) {
				c := rest[j]
				if c == '\\' {
					if j+1 >= len(rest) {
						return "", nil, 0, fmt.Errorf("dangling escape in %q", line)
					}
					switch rest[j+1] {
					case '\\':
						val.WriteByte('\\')
					case '"':
						val.WriteByte('"')
					case 'n':
						val.WriteByte('\n')
					default:
						return "", nil, 0, fmt.Errorf("invalid escape \\%c in %q", rest[j+1], line)
					}
					j += 2
					continue
				}
				if c == '"' {
					closed = true
					j++
					break
				}
				val.WriteByte(c)
				j++
			}
			if !closed {
				return "", nil, 0, fmt.Errorf("unterminated label value in %q", line)
			}
			labels = append(labels, labelPair{ln, val.String()})
			rest = rest[j:]
		}
	}
	rest = strings.TrimSpace(rest)
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return "", nil, 0, fmt.Errorf("expected value (and optional timestamp) in %q", line)
	}
	v, perr := parseValue(fields[0])
	if perr != nil {
		return "", nil, 0, fmt.Errorf("unparseable value %q in %q", fields[0], line)
	}
	return name, labels, v, nil
}

func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}
