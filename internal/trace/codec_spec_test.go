package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/metrics"
)

// specReadJSON is the executable spec of ReadJSON: the encoding/json reader
// it replaced. ReadJSON must return a deep-equal dataset on every input, or
// both must fail. The one change from the original body is the null-series
// check, which replaced a nil-pointer panic in AttachSeries.
func specReadJSON(r io.Reader) (*Dataset, error) {
	var wire jsonDataset
	if err := json.NewDecoder(r).Decode(&wire); err != nil {
		return nil, fmt.Errorf("trace: decoding dataset: %w", err)
	}
	d := NewDataset(wire.DurationDays)
	d.Jobs = wire.Jobs
	for _, ts := range wire.Series {
		if ts == nil {
			return nil, errors.New("trace: decoding dataset: null time series")
		}
		d.AttachSeries(ts)
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// checkMatchesSpec decodes data with ReadJSON and with the spec and fails
// unless both error or both return the same dataset: deep-equal (nil and
// empty slices told apart, the Series map included) and encoding to the
// same bytes (which tells -0 from 0, where DeepEqual does not).
func checkMatchesSpec(t *testing.T, data []byte) {
	t.Helper()
	got, gotErr := ReadJSON(bytes.NewReader(data))
	want, wantErr := specReadJSON(bytes.NewReader(data))
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("ReadJSON error %v, spec error %v, on %.200q", gotErr, wantErr, data)
	}
	if gotErr != nil {
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ReadJSON and the spec decode %.200q differently:\ngot  %+v\nwant %+v", data, got, want)
	}
	var a, b bytes.Buffer
	if err := got.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := want.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("ReadJSON and the spec decode %.200q to different values", data)
	}
}

// quirkBodies are inputs on which encoding/json behaves in a way a
// hand-written decoder could easily miss, one or more per behaviour.
func quirkBodies() map[string]string {
	deep := func(n int) string {
		return `{"x":` + strings.Repeat("[", n) + strings.Repeat("]", n) + `}`
	}
	return map[string]string{
		// Keys match case-insensitively, Unicode folding included.
		"folded-keys":   `{"JOBS":[{"jobid":1,"USER":2,"interface":3,"EXIT":0,"runsec":60,"NUMGPUS":1,"pergpu":[[{"MIN":1,"mean":2,"MAX":3}]],"HostCpu":{"mEaN":4}}],"Duration_Days":5}`,
		"unicode-fold":  `{"jobſ":[{"JobID":1,"ſubmitſec":5,"RunSec":40}],"ſeries":[]}`,
		"escaped-key":   `{"\u006aobs":[{"Job\u0049D":3,"RunSec":1.5}],"duration\u005fdays":2,"\/":0}`,
		"invalid-utf8":  "{\"jobs\xff\":[1],\"jobs\":[{\"JobID\":1}]}",
		"surrogate-key": `{"😀":1,"\ud800jobs":2,"jobs":[]}`,
		// A duplicate key decodes again into what the first one left.
		"duplicate-field": `{"jobs":[{"JobID":1,"JobID":2,"User":3,"User":null}]}`,
		"duplicate-jobs":  `{"jobs":[{"JobID":1,"User":5}],"jobs":[{"JobID":2}]}`,
		"shrink-regrow":   `{"jobs":[{"JobID":1},{"JobID":2,"User":3,"NumGPUs":1,"PerGPU":[[{"Min":1}]]}],"jobs":[{"JobID":4}],"jobs":[{"JobID":5},{"JobID":6}]}`,
		"duplicate-pergpu": `{"jobs":[{"JobID":1,"NumGPUs":2,"PerGPU":[[{"Min":1},{"Max":2}],[{"Mean":3}]],` +
			`"PerGPU":[[{"Mean":4}]],"PerGPU":[[],[{"Max":5}]]}]}`,
		"pergpu-empty-then-full": `{"jobs":[{"JobID":1,"NumGPUs":1,"PerGPU":[],"PerGPU":[[{"Min":1}]]}]}`,
		"duplicate-series": `{"jobs":[{"JobID":1}],"series":[{"JobID":1,"IntervalSec":0.1}],` +
			`"series":[{"PerGPU":[[{"TimeSec":1,"Values":[1]}]]}],"series":[{"PerGPU":[[{"Values":[9,8]},{"TimeSec":2}]]}]}`,
		"series-null-then-object": `{"jobs":[{"JobID":1}],"series":[null],"series":[{"JobID":1}]}`,
		// Unknown fields are skipped, nested values included.
		"unknown-fields": `{"v":2,"jobs":[{"JobID":1,"extra":{"a":[1,-2.5e3,{"b":null}],"c":"xé\n\"","d":true}}],"meta":[true,false,null,"s",{}]}`,
		"unknown-in-records": `{"jobs":[{"JobID":1,"NumGPUs":1,"PerGPU":[[{"Min":1,"p50":{"q":[]}}]],"GPU":[{"Max":2,"z":"y"}]}],` +
			`"series":[{"JobID":1,"n":[[[]]],"PerGPU":[[{"TimeSec":1,"Values":[1,2],"k":0}]]}]}`,
		// Bytes after the first value are ignored.
		"trailing-garbage": `{"jobs":[{"JobID":1}]} garbage`,
		"trailing-value":   `{"duration_days":1}{"duration_days":2}`,
		"null-trailing":    `null}`,
		"null-letter":      `nullx`,
		// A top-level null is an empty dataset.
		"null":       `null`,
		"null-space": " \n\tnull ",
		"empty-obj":  `{}`,
		// An int field takes only an in-range integer literal.
		"int-float":     `{"jobs":[{"JobID":7.0}]}`,
		"int-exp":       `{"jobs":[{"JobID":1e2}]}`,
		"int-neg-zero":  `{"jobs":[{"JobID":-0}]}`,
		"int-max":       `{"jobs":[{"JobID":9223372036854775807}]}`,
		"int-overflow":  `{"jobs":[{"JobID":9223372036854775808}]}`,
		"int-min":       `{"jobs":[{"JobID":-9223372036854775808}]}`,
		"int-long-zero": `{"jobs":[{"JobID":1000000000000000000}]}`,
		"int-string":    `{"jobs":[{"JobID":"7"}]}`,
		// A float field takes what ParseFloat takes, bit for bit.
		"float-neg-zero":  `{"jobs":[{"JobID":1,"RunSec":-0,"MemGB":-0.0}]}`,
		"float-overflow":  `{"jobs":[{"JobID":1,"RunSec":1e400}]}`,
		"float-underflow": `{"jobs":[{"JobID":1,"RunSec":1E-400,"WaitSec":4.9e-324}]}`,
		"float-long":      `{"jobs":[{"JobID":1,"RunSec":123456789012345678901234567890.123456789012345678901234567890e-10}]}`,
		"float-bool":      `{"jobs":[{"JobID":1,"RunSec":true}]}`,
		// A JSON array into a Go array drops extra elements and zeroes
		// missing ones.
		"array-long":  `{"jobs":[{"JobID":1,"GPU":[{"Min":1},{"Min":2},{},{},{},{},{"Min":9},"not decoded"]}]}`,
		"array-short": `{"jobs":[{"JobID":1,"GPU":[{"Max":1},{"Max":2}],"GPU":[{"Min":3}]}]}`,
		"values":      `{"jobs":[{"JobID":1}],"series":[{"JobID":1,"PerGPU":[[{"Values":[1,2,3,4,5,6,7,"x"]},{"Values":[1],"Values":[]}]]}]}`,
		// null leaves a field unchanged, and clears a slice or pointer.
		"null-fields":  `{"duration_days":null,"jobs":[{"JobID":1,"RunSec":60,"RunSec":null,"GPU":null,"HostCPU":null,"PerGPU":null}]}`,
		"null-jobs":    `{"jobs":[{"JobID":1}],"jobs":null}`,
		"null-pergpu":  `{"jobs":[{"JobID":1,"NumGPUs":1,"PerGPU":[[{"Min":1}]],"PerGPU":null}]}`,
		"null-series":  `{"series":[null]}`,
		"null-job":     `{"jobs":[null,{"JobID":1}]}`,
		"empty-arrays": `{"jobs":[{"JobID":1,"PerGPU":[]}],"series":[]}`,
		// Type mismatches and syntax errors fail both.
		"jobs-object":     `{"jobs":{}}`,
		"job-array":       `{"jobs":[[]]}`,
		"top-array":       `[]`,
		"top-number":      `1`,
		"top-string":      `"x"`,
		"empty":           ``,
		"space":           `  `,
		"truncated":       `{"jobs":[{"JobID":1}`,
		"trailing-comma":  `{"jobs":[{"JobID":1},]}`,
		"bad-escape":      `{"x":"\q"}`,
		"short-escape":    `{"x":"\u12"}`,
		"escape-at-end":   `{"x":"\u00`,
		"control-char":    "{\"x\":\"a\tb\"}",
		"leading-zero":    `{"jobs":[{"JobID":01}]}`,
		"bad-literal":     `{"x":nul}`,
		"unquoted-key":    `{jobs:[]}`,
		"missing-colon":   `{"jobs" []}`,
		"series-literal":  `{"series":[1]}`,
		"validate-reject": `{"jobs":[{"JobID":1},{"JobID":1}]}`,
		"orphan-series":   `{"series":[{"JobID":4}]}`,
		// Nesting past encoding/json's limit of 10000 is a syntax error.
		"depth-max":  deep(maxJSONDepth - 1),
		"depth-over": deep(maxJSONDepth),
	}
}

// syntheticDataset builds n seeded jobs of the shapes an ingest body
// carries: CPU jobs and 1-, 2-, 4- and 8-GPU jobs with full-precision
// digests, and a time series for every 50th job.
func syntheticDataset(n int, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	summary := func(scale float64) metrics.SummaryRecord {
		lo := rng.Float64() * scale
		return metrics.SummaryRecord{Min: lo, Mean: lo + rng.Float64()*scale, Max: lo + 2*rng.Float64()*scale}
	}
	d := NewDataset(125)
	for i := 0; i < n; i++ {
		j := JobRecord{
			JobID: int64(1000 + i), User: rng.Intn(200),
			Interface: Interface(rng.Intn(int(NumInterfaces))), Exit: ExitStatus(rng.Intn(int(NumExitStatuses))),
			SubmitSec: rng.Float64() * 1e7, WaitSec: rng.ExpFloat64() * 600, RunSec: rng.ExpFloat64() * 3600,
			LimitSec: 43200, MemGB: float64(rng.Intn(512)), HostCPU: summary(100),
			Requeues: rng.Intn(2), FailureLossSec: rng.Float64() * 10,
		}
		if rng.Intn(3) > 0 {
			j.NumGPUs = 1 << rng.Intn(4)
			j.CoresPerGPU = 4
			j.PerGPU = make([]metrics.MetricSummaries, j.NumGPUs)
			for g := range j.PerGPU {
				for m := range j.PerGPU[g] {
					j.PerGPU[g][m] = summary(100)
				}
			}
			j.FinalizeGPUSummary()
		} else {
			j.Cores = 1 + rng.Intn(40)
		}
		d.Add(j)
		if i%50 == 0 {
			ts := &TimeSeries{JobID: j.JobID, IntervalSec: 0.1, PerGPU: make([][]metrics.Sample, max(1, j.NumGPUs))}
			for g := range ts.PerGPU {
				for k := 0; k < 5; k++ {
					s := metrics.Sample{TimeSec: float64(k) / 10}
					for m := range s.Values {
						s.Values[m] = rng.Float64() * 100
					}
					ts.PerGPU[g] = append(ts.PerGPU[g], s)
				}
			}
			d.AttachSeries(ts)
		}
	}
	return d
}

func syntheticBody(tb testing.TB, n int, seed int64) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := syntheticDataset(n, seed).WriteJSON(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// specSeeds is the differential corpus: FuzzReadJSON's seeds, a generated
// 1000-job body with series, and the quirk bodies.
func specSeeds(tb testing.TB) map[string][]byte {
	seeds := map[string][]byte{"{}": []byte("{}"), "null": []byte("null")}
	d := NewDataset(1)
	d.Add(gpuJob(1, 0, 600, 1))
	var one bytes.Buffer
	if err := d.WriteJSON(&one); err != nil {
		tb.Fatal(err)
	}
	seeds["one-job"] = one.Bytes()
	seeds["generated-1000"] = syntheticBody(tb, 1000, 26)
	for name, body := range quirkBodies() {
		seeds[name] = []byte(body)
	}
	return seeds
}

// TestReadJSONMatchesSpec runs the differential check over the seed corpus,
// so every quirk is checked on each test run, not only under -fuzz.
func TestReadJSONMatchesSpec(t *testing.T) {
	for name, body := range specSeeds(t) {
		t.Run(name, func(t *testing.T) { checkMatchesSpec(t, body) })
	}
}

// FuzzReadJSONMatchesSpec: on any input ReadJSON and the encoding/json spec
// return the same dataset, or both fail.
func FuzzReadJSONMatchesSpec(f *testing.F) {
	for _, body := range specSeeds(f) {
		f.Add(body)
	}
	f.Fuzz(checkMatchesSpec)
}

// TestReadJSONPerGPUClipped: the PerGPU slices of a batch share backing
// arrays, so each must be clipped to its length — an append to one job's
// digests must not write into the next job's.
func TestReadJSONPerGPUClipped(t *testing.T) {
	ds, err := ReadJSON(bytes.NewReader(syntheticBody(t, 200, 3)))
	if err != nil {
		t.Fatal(err)
	}
	want := syntheticDataset(200, 3)
	for i := range ds.Jobs {
		j := &ds.Jobs[i]
		if len(j.PerGPU) != cap(j.PerGPU) {
			t.Fatalf("job %d: PerGPU len %d cap %d", j.JobID, len(j.PerGPU), cap(j.PerGPU))
		}
		j.PerGPU = append(j.PerGPU, metrics.MetricSummaries{{Min: math.Pi}})
	}
	for i := range ds.Jobs {
		if n := len(want.Jobs[i].PerGPU); n > 0 && !reflect.DeepEqual(ds.Jobs[i].PerGPU[:n], want.Jobs[i].PerGPU) {
			t.Fatalf("job %d: digests changed by an append to another job", ds.Jobs[i].JobID)
		}
	}
}
