package obs

import (
	"math"
	"strconv"
	"strings"
	"testing"
	"time"
)

// This file is the repo's stand-in for promtool check-metrics: a real
// parser for the two exposition formats we emit, run over a fully
// populated registry. It enforces the grammar a scraper relies on —
// HELP/TYPE ordering, contiguous families, label-value escaping, monotone
// cumulative histogram buckets, exemplar syntax — rather than spot-checking
// substrings.

// expoSample is one parsed non-comment line.
type expoSample struct {
	name     string // sample name incl. suffixes (_bucket, _total, ...)
	labels   map[string]string
	value    float64
	exemplar string // raw exemplar clause after " # ", "" if none
}

// expoFamily groups one family's header and samples, in output order.
type expoFamily struct {
	name    string // name from HELP/TYPE
	help    bool
	typ     string
	samples []expoSample
}

// parseExpo validates the whole document line by line and returns the
// families in order. openMetrics toggles the stricter OM checks (exemplars
// allowed, `# EOF` required).
func parseExpo(t *testing.T, doc string, openMetrics bool) []*expoFamily {
	t.Helper()
	lines := strings.Split(doc, "\n")
	if len(lines) == 0 || lines[len(lines)-1] != "" {
		t.Fatal("exposition does not end with a newline")
	}
	lines = lines[:len(lines)-1]

	if openMetrics {
		if len(lines) == 0 || lines[len(lines)-1] != "# EOF" {
			t.Fatal("OpenMetrics exposition does not end with # EOF")
		}
		lines = lines[:len(lines)-1]
	}

	var fams []*expoFamily
	byName := map[string]*expoFamily{}
	var cur *expoFamily
	pendingHelp := "" // HELP seen, TYPE not yet

	for _, line := range lines {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			if pendingHelp != "" {
				t.Fatalf("two HELP lines in a row (second for %q)", line)
			}
			rest := strings.TrimPrefix(line, "# HELP ")
			name, _, ok := strings.Cut(rest, " ")
			if !ok {
				t.Fatalf("HELP line without text: %q", line)
			}
			pendingHelp = name
		case strings.HasPrefix(line, "# TYPE "):
			fields := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(fields) != 2 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			name, typ := fields[0], fields[1]
			if typ != "counter" && typ != "gauge" && typ != "histogram" {
				t.Fatalf("unknown TYPE %q in %q", typ, line)
			}
			if pendingHelp != "" && pendingHelp != name {
				t.Fatalf("HELP for %q immediately before TYPE for %q", pendingHelp, name)
			}
			if byName[name] != nil {
				t.Fatalf("family %q appears twice — families must be contiguous", name)
			}
			cur = &expoFamily{name: name, help: pendingHelp != "", typ: typ}
			pendingHelp = ""
			fams = append(fams, cur)
			byName[name] = cur
		case strings.HasPrefix(line, "#"):
			t.Fatalf("unexpected comment line %q", line)
		default:
			if pendingHelp != "" {
				t.Fatalf("HELP for %q not followed by TYPE", pendingHelp)
			}
			s := parseSampleLine(t, line)
			if s.exemplar != "" && !openMetrics {
				t.Fatalf("exemplar in 0.0.4 exposition: %q", line)
			}
			if cur == nil || !sampleBelongs(cur, s.name, openMetrics) {
				t.Fatalf("sample %q outside its family header (current family %v)", line, cur)
			}
			cur.samples = append(cur.samples, s)
		}
	}
	if pendingHelp != "" {
		t.Fatalf("trailing HELP for %q without TYPE", pendingHelp)
	}
	return fams
}

// sampleBelongs reports whether a sample name is legal under the family
// header: the bare name, histogram suffixes for histogram families, and —
// in OpenMetrics — the `_total` suffix for counter families.
func sampleBelongs(f *expoFamily, sample string, openMetrics bool) bool {
	if f.typ == "histogram" {
		switch sample {
		case f.name + "_bucket", f.name + "_sum", f.name + "_count":
			return true
		}
		return false
	}
	if openMetrics && f.typ == "counter" {
		return sample == f.name+"_total"
	}
	return sample == f.name
}

// parseSampleLine parses `name{labels} value` with an optional
// ` # {labels} value ts` exemplar clause, validating label escaping.
func parseSampleLine(t *testing.T, line string) expoSample {
	t.Helper()
	s := expoSample{labels: map[string]string{}}
	rest := line

	i := strings.IndexAny(rest, "{ ")
	if i < 0 {
		t.Fatalf("sample line without value: %q", line)
	}
	s.name = rest[:i]
	if !validFamily(s.name) {
		t.Fatalf("invalid sample name %q in %q", s.name, line)
	}
	if rest[i] == '{' {
		var ok bool
		rest, ok = parseLabelSet(t, rest[i+1:], s.labels, line)
		if !ok || !strings.HasPrefix(rest, " ") {
			t.Fatalf("malformed label set in %q", line)
		}
		rest = rest[1:]
	} else {
		rest = rest[i+1:]
	}

	valueStr := rest
	if j := strings.Index(rest, " # "); j >= 0 {
		valueStr, s.exemplar = rest[:j], rest[j+3:]
		validateExemplar(t, s.exemplar, line)
	}
	v, err := strconv.ParseFloat(valueStr, 64)
	if err != nil {
		t.Fatalf("unparseable value %q in %q: %v", valueStr, line, err)
	}
	s.value = v
	return s
}

// parseLabelSet consumes `name="value",...}` from rest (the '{' already
// eaten), unescaping values into out. Returns the remainder after '}'.
func parseLabelSet(t *testing.T, rest string, out map[string]string, line string) (string, bool) {
	t.Helper()
	for {
		eq := strings.IndexByte(rest, '=')
		if eq < 0 || eq+1 >= len(rest) || rest[eq+1] != '"' {
			return rest, false
		}
		name := rest[:eq]
		if !validFamily(name) {
			t.Fatalf("invalid label name %q in %q", name, line)
		}
		rest = rest[eq+2:]
		var val strings.Builder
		for {
			if rest == "" {
				return rest, false
			}
			c := rest[0]
			if c == '"' {
				rest = rest[1:]
				break
			}
			if c == '\n' {
				t.Fatalf("raw newline inside label value in %q", line)
			}
			if c == '\\' {
				if len(rest) < 2 {
					return rest, false
				}
				switch rest[1] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					t.Fatalf("illegal escape \\%c in %q", rest[1], line)
				}
				rest = rest[2:]
				continue
			}
			val.WriteByte(c)
			rest = rest[1:]
		}
		out[name] = val.String()
		if strings.HasPrefix(rest, ",") {
			rest = rest[1:]
			continue
		}
		if strings.HasPrefix(rest, "}") {
			return rest[1:], true
		}
		return rest, false
	}
}

// validateExemplar checks the OpenMetrics exemplar grammar:
// {trace_id="..."} value timestamp.
func validateExemplar(t *testing.T, ex, line string) {
	t.Helper()
	if !strings.HasPrefix(ex, "{") {
		t.Fatalf("exemplar without label set in %q", line)
	}
	labels := map[string]string{}
	rest, ok := parseLabelSet(t, ex[1:], labels, line)
	if !ok {
		t.Fatalf("malformed exemplar labels in %q", line)
	}
	if labels["trace_id"] == "" {
		t.Fatalf("exemplar lacks trace_id in %q", line)
	}
	fields := strings.Fields(rest)
	if len(fields) != 2 {
		t.Fatalf("exemplar wants `value timestamp`, got %q in %q", rest, line)
	}
	for _, f := range fields {
		if _, err := strconv.ParseFloat(f, 64); err != nil {
			t.Fatalf("unparseable exemplar field %q in %q", f, line)
		}
	}
}

// populate builds a registry exercising every metric kind, labelled series
// named with Label, escaping-hostile label values, and exemplars.
func populate(t *testing.T) *Registry {
	t.Helper()
	r := NewRegistry()
	r.Counter("conf_plain_total", "A plain counter.").Add(7)
	r.Gauge("conf_depth", "An int gauge.").Set(3)
	r.FloatGauge("conf_ratio", "A float gauge.").Set(0.25)

	requests := func(route, code string) *Counter {
		return r.Counter("conf_requests_total{"+Label("route", route)+","+Label("code", code)+"}",
			"A labelled counter.")
	}
	requests("/api/search", "2xx").Add(5)
	requests("/api/search", "4xx").Inc()
	requests(`we"ird\pa`+"\n"+`th`, "5xx").Inc() // escaping-hostile value

	h := r.Histogram("conf_latency_seconds{"+Label("route", "/api/search")+"}",
		"A labelled histogram.", LatencyBuckets)
	h.ObserveExemplar(3e-6, "0123456789abcdef")
	h.ObserveExemplar(100e-6, "fedcba9876543210")
	h.Observe(250) // above the last bound: +Inf bucket

	r.Histogram("conf_linear_seconds", "An unlabelled linear histogram.", DefBuckets).Observe(0.2)
	return r
}

func renderedDocs(t *testing.T) (classic, om string) {
	t.Helper()
	r := populate(t)
	var a, b strings.Builder
	if err := r.WriteText(&a); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteOpenMetrics(&b); err != nil {
		t.Fatal(err)
	}
	return a.String(), b.String()
}

func TestExpositionConformance(t *testing.T) {
	classic, om := renderedDocs(t)

	for _, tc := range []struct {
		mode string
		doc  string
		open bool
	}{{"text-0.0.4", classic, false}, {"openmetrics-1.0", om, true}} {
		t.Run(tc.mode, func(t *testing.T) {
			fams := parseExpo(t, tc.doc, tc.open)
			byName := map[string]*expoFamily{}
			for _, f := range fams {
				byName[f.name] = f
				if !f.help {
					t.Errorf("family %s has no HELP line", f.name)
				}
			}

			counterFam := "conf_requests_total"
			if tc.open {
				counterFam = "conf_requests" // OM strips _total in HELP/TYPE
				if byName["conf_requests_total"] != nil {
					t.Error("OpenMetrics kept _total on the counter family header")
				}
			}
			cf := byName[counterFam]
			if cf == nil || cf.typ != "counter" {
				t.Fatalf("counter family %s missing or mistyped: %+v", counterFam, cf)
			}

			// Label escaping round-trips the hostile value.
			found := false
			for _, s := range cf.samples {
				if s.labels["route"] == `we"ird\pa`+"\n"+`th` {
					found = true
					if s.value != 1 {
						t.Errorf("escaped series value = %v, want 1", s.value)
					}
				}
			}
			if !found {
				t.Error("escaping-hostile label value did not round-trip")
			}

			// Histogram invariants: buckets cumulative and monotone, +Inf
			// present, sum/count consistent with the family.
			hf := byName["conf_latency_seconds"]
			if hf == nil || hf.typ != "histogram" {
				t.Fatalf("histogram family missing or mistyped: %+v", hf)
			}
			checkHistogram(t, hf, "/api/search", 3)

			// Exemplars: present on the OM bucket lines that received
			// sampled observations, absent from classic text.
			exemplars := 0
			for _, s := range hf.samples {
				if s.exemplar != "" {
					if s.name != hf.name+"_bucket" {
						t.Errorf("exemplar on non-bucket sample %s", s.name)
					}
					exemplars++
				}
			}
			if tc.open && exemplars < 2 {
				t.Errorf("OpenMetrics exposition has %d exemplars, want >= 2", exemplars)
			}
			if !tc.open && exemplars != 0 {
				t.Errorf("classic exposition has %d exemplars, want 0", exemplars)
			}
		})
	}
}

// checkHistogram verifies cumulative monotonicity and the bucket/sum/count
// relationship for one label set of a histogram family.
func checkHistogram(t *testing.T, f *expoFamily, route string, wantCount float64) {
	t.Helper()
	prev := math.Inf(-1)
	var infVal, countVal float64
	var sawInf, sawCount bool
	for _, s := range f.samples {
		if s.labels["route"] != route && !(route == "" && len(s.labels) == 0) {
			continue
		}
		switch s.name {
		case f.name + "_bucket":
			le := s.labels["le"]
			if le == "" {
				t.Fatalf("bucket sample without le label: %+v", s)
			}
			if s.value < prev {
				t.Fatalf("bucket le=%s value %v below previous %v — not cumulative", le, s.value, prev)
			}
			prev = s.value
			if le == "+Inf" {
				infVal, sawInf = s.value, true
			} else if _, err := strconv.ParseFloat(le, 64); err != nil {
				t.Fatalf("unparseable le bound %q", le)
			}
		case f.name + "_count":
			countVal, sawCount = s.value, true
		}
	}
	if !sawInf || !sawCount {
		t.Fatalf("histogram %s{route=%q} missing +Inf bucket or count", f.name, route)
	}
	if infVal != countVal {
		t.Errorf("+Inf bucket %v != count %v", infVal, countVal)
	}
	if countVal != wantCount {
		t.Errorf("count = %v, want %v", countVal, wantCount)
	}
}

// TestExpositionBucketOrdering pins that le bounds appear in ascending
// order within one label set — scrapers binary-search on that.
func TestExpositionBucketOrdering(t *testing.T) {
	_, om := renderedDocs(t)
	prev := -1.0
	for _, line := range strings.Split(om, "\n") {
		if !strings.HasPrefix(line, "conf_latency_seconds_bucket") {
			continue
		}
		s := parseSampleLine(t, line)
		le := s.labels["le"]
		if le == "+Inf" {
			prev = math.Inf(1)
			continue
		}
		b, err := strconv.ParseFloat(le, 64)
		if err != nil {
			t.Fatalf("bad le %q", le)
		}
		if b <= prev {
			t.Fatalf("le bounds out of order: %v after %v", b, prev)
		}
		prev = b
	}
	if prev != math.Inf(1) {
		t.Fatal("+Inf bucket is not last")
	}
}

// TestExemplarTimestampRecent pins the exemplar timestamp is unix seconds,
// not nanos or millis.
func TestExemplarTimestampRecent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("ts_seconds", "h", LatencyBuckets)
	h.ObserveExemplar(1e-6, "abc")
	var b strings.Builder
	if err := r.WriteOpenMetrics(&b); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(b.String(), "\n") {
		if !strings.Contains(line, " # ") {
			continue
		}
		fields := strings.Fields(line[strings.Index(line, " # ")+3:])
		ts, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			t.Fatal(err)
		}
		now := float64(time.Now().UnixNano()) / 1e9
		if math.Abs(now-ts) > 60 {
			t.Fatalf("exemplar timestamp %v not within a minute of now %v — wrong unit?", ts, now)
		}
		return
	}
	t.Fatal("no exemplar emitted")
}
