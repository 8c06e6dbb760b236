package trace

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"

	"repro/internal/metrics"
)

// The JSON reader is written for the one schema WriteJSON emits (jsonDataset
// and the records inside it) and works over the body's bytes, without
// reflection. It accepts exactly what encoding/json's Decoder.Decode accepts
// into jsonDataset and yields the identical values, because write-ahead-log
// replay decodes every batch the server ever acknowledged with it: a body
// one decoder took and the other refuses would make Open fail on an
// existing data dir. The encoding/json reader is kept as the executable
// spec in codec_spec_test.go, and a differential fuzz target holds the two
// together. The encoding/json behaviours that matter:
//
//   - keys match field names exactly, else case-insensitively under
//     strings.EqualFold (so "JOBS" and "jobſ" both name "jobs");
//   - unknown keys are skipped, whatever their value, and a duplicate key
//     decodes again into what the earlier one left (last wins);
//   - null sets a slice or pointer to nil and leaves anything else as it is;
//   - a JSON array decodes into an existing slice element by element,
//     merging into elements it already holds, and into a Go array by
//     dropping extra elements and zeroing missing ones;
//   - an int field takes only an integer literal in range (7.0 is an error);
//     a float field takes any number strconv.ParseFloat takes at 64 bits;
//   - nesting deeper than 10000 is a syntax error, and anything after the
//     first value is ignored.
//
// One departure, in both readers: a null element of "series" is an error.
// encoding/json decoded it to a nil *TimeSeries, which AttachSeries then
// dereferenced and panicked on.

// maxJSONDepth is encoding/json's nesting limit.
const maxJSONDepth = 10000

// perGPUChunk is how many per-GPU digests one arena allocation holds. The
// PerGPU slices of a batch share these arrays, each clipped to its own
// length so an append to one can never write into another.
const perGPUChunk = 512

var (
	datasetFields = []string{"duration_days", "jobs", "series"}
	jobFields     = []string{
		"JobID", "User", "Interface", "Exit",
		"SubmitSec", "WaitSec", "RunSec", "LimitSec",
		"NumGPUs", "CoresPerGPU", "Cores", "MemGB",
		"PerGPU", "GPU", "HostCPU", "Requeues", "FailureLossSec",
	}
	summaryFields = []string{"Min", "Mean", "Max"}
	seriesFields  = []string{"JobID", "IntervalSec", "PerGPU"}
	sampleFields  = []string{"TimeSec", "Values"}
)

// DecodeJSON parses a dataset written by WriteJSON from its bytes. The
// result does not alias data.
func DecodeJSON(data []byte) (*Dataset, error) {
	d := jsonDecoder{data: data}
	var wire jsonDataset
	if err := d.dataset(&wire); err != nil {
		return nil, err
	}
	return wire.dataset()
}

// dataset turns the decoded wire form into a validated Dataset, attaching
// the series in wire order (a later duplicate job ID wins).
func (w *jsonDataset) dataset() (*Dataset, error) {
	d := NewDataset(w.DurationDays)
	d.Jobs = w.Jobs
	for _, ts := range w.Series {
		if ts == nil {
			return nil, fmt.Errorf("trace: decoding dataset: null time series")
		}
		d.AttachSeries(ts)
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

type jsonDecoder struct {
	data  []byte
	off   int
	depth int
	arena []metrics.MetricSummaries // the batch's PerGPU slices share it
}

func (d *jsonDecoder) fail(format string, args ...any) error {
	return fmt.Errorf("trace: decoding dataset: offset %d: %s", d.off, fmt.Sprintf(format, args...))
}

// peek skips whitespace and returns the next byte, or 0 (which no JSON
// token starts with) at the end of the input.
func (d *jsonDecoder) peek() byte {
	if d.off < len(d.data) && d.data[d.off] > ' ' {
		return d.data[d.off]
	}
	return d.skipSpace()
}

func (d *jsonDecoder) skipSpace() byte {
	for ; d.off < len(d.data); d.off++ {
		switch c := d.data[d.off]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// unexpected is the error for a byte c, returned by peek, that nothing
// here may start with.
func (d *jsonDecoder) unexpected(c byte, context string) error {
	if d.off >= len(d.data) {
		return d.fail("unexpected end of JSON input")
	}
	return d.fail("unexpected %q %s", c, context)
}

// begin looks at the next value for a target that takes open ('{' or '[').
// A null is consumed and reported; any other kind of value is an error.
func (d *jsonDecoder) begin(open byte) (null bool, err error) {
	switch c := d.peek(); c {
	case open:
		return false, nil
	case 'n':
		return true, d.literal("null")
	default:
		return false, d.unexpected(c, "at the start of a value")
	}
}

func (d *jsonDecoder) literal(lit string) error {
	if !bytes.HasPrefix(d.data[d.off:], []byte(lit)) {
		return d.fail("invalid literal, want %s", lit)
	}
	d.off += len(lit)
	return nil
}

// open consumes the '{' or '[' at d.off and reports whether the object or
// array has a first member, consuming it whole if it is empty.
func (d *jsonDecoder) open(end byte) (bool, error) {
	d.off++
	if d.depth++; d.depth > maxJSONDepth {
		return false, d.fail("exceeded max depth")
	}
	if d.peek() != end {
		return true, nil
	}
	d.off++
	d.depth--
	return false, nil
}

// next consumes the ',' or closing end after a member and reports whether
// another member follows.
func (d *jsonDecoder) next(end byte) (bool, error) {
	switch c := d.peek(); c {
	case ',':
		d.off++
		return true, nil
	case end:
		d.off++
		d.depth--
		return false, nil
	default:
		return false, d.unexpected(c, "after a value")
	}
}

// key consumes an object key and the ':' after it, and returns the index in
// fields of the field it names, or -1.
func (d *jsonDecoder) key(fields []string) (int, error) {
	if c := d.peek(); c != '"' {
		return -1, d.unexpected(c, "where a key belongs")
	}
	raw, plain, err := d.str()
	if err != nil {
		return -1, err
	}
	if c := d.peek(); c != ':' {
		return -1, d.unexpected(c, "after a key")
	}
	d.off++
	if len(fields) == 0 {
		return -1, nil
	}
	key := raw
	if !plain {
		key = unquote(raw)
	}
	for i, f := range fields {
		if string(key) == f {
			return i, nil
		}
	}
	for i, f := range fields {
		if strings.EqualFold(string(key), f) {
			return i, nil
		}
	}
	return -1, nil
}

// str consumes a string literal, checking its syntax, and returns its
// contents undecoded and whether they are escape-free ASCII (and so decode
// to themselves).
func (d *jsonDecoder) str() ([]byte, bool, error) {
	s := d.data
	start := d.off + 1
	plain := true
	for i := start; i < len(s); i++ {
		switch c := s[i]; {
		case c == '"':
			d.off = i + 1
			return s[start:i], plain, nil
		case c == '\\':
			plain = false
			n := escapeLen(s[i+1:])
			if n == 0 {
				d.off = i
				return nil, false, d.fail("invalid escape in string")
			}
			i += n
		case c < ' ':
			d.off = i
			return nil, false, d.fail("control character in string")
		case c >= utf8.RuneSelf:
			plain = false
		}
	}
	d.off = len(s)
	return nil, false, d.fail("unexpected end of JSON input")
}

// escapeLen returns how many bytes the escape at the start of s, which
// follows a backslash in a string, takes, or 0 if s starts with none.
func escapeLen(s []byte) int {
	switch {
	case len(s) == 0:
		return 0
	case strings.IndexByte(`"\/bfnrt`, s[0]) >= 0:
		return 1
	case s[0] == 'u' && len(s) >= 5 && isHex(s[1]) && isHex(s[2]) && isHex(s[3]) && isHex(s[4]):
		return 5
	}
	return 0
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// unquote decodes a syntax-checked string's contents as encoding/json does:
// escapes resolved, and invalid UTF-8 and unpaired surrogates replaced by
// U+FFFD.
func unquote(s []byte) []byte {
	b := make([]byte, 0, len(s)+utf8.UTFMax)
	for i := 0; i < len(s); {
		c := s[i]
		switch {
		case c == '\\':
			switch e := s[i+1]; e {
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				r := hex4(s[i+2:])
				i += 6
				if utf16.IsSurrogate(r) {
					if i+6 <= len(s) && s[i] == '\\' && s[i+1] == 'u' {
						if dec := utf16.DecodeRune(r, hex4(s[i+2:])); dec != utf8.RuneError {
							b = utf8.AppendRune(b, dec)
							i += 6
							continue
						}
					}
					r = utf8.RuneError
				}
				b = utf8.AppendRune(b, r)
				continue
			default: // '"', '\\', '/'
				b = append(b, e)
			}
			i += 2
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			r, size := utf8.DecodeRune(s[i:])
			b = utf8.AppendRune(b, r)
			i += size
		}
	}
	return b
}

// hex4 reads the four hex digits at the start of s.
func hex4(s []byte) rune {
	var r rune
	for _, c := range s[:4] {
		switch {
		case c <= '9':
			c -= '0'
		case c <= 'F':
			c -= 'A' - 10
		default:
			c -= 'a' - 10
		}
		r = r<<4 | rune(c)
	}
	return r
}

// numberLit is a number literal with its digits already read.
type numberLit struct {
	lit    []byte
	mant   uint64 // the digits read as one integer; exact when digits <= 19
	digits int    // count of digits, leading zeros included
	frac   int    // count of digits after the decimal point
	exp    bool   // whether the literal has an exponent
}

// number consumes a number literal, checking its syntax, and reads its
// digits on the way.
func (d *jsonDecoder) number() (numberLit, error) {
	s, i := d.data, d.off
	n := numberLit{}
	if s[i] == '-' {
		i++
	}
	if i >= len(s) || !isDigit(s[i]) {
		d.off = i
		return n, d.fail("invalid number")
	}
	intStart := i
	if s[i] == '0' {
		i++
	} else {
		i = n.readDigits(s, i)
	}
	n.digits = i - intStart
	if i < len(s) && s[i] == '.' {
		fracStart := i + 1
		if i = n.readDigits(s, fracStart); i == fracStart {
			d.off = i
			return n, d.fail("invalid number")
		}
		n.frac = i - fracStart
		n.digits += n.frac
	}
	if i < len(s) && (s[i] == 'e' || s[i] == 'E') {
		n.exp = true
		if i++; i < len(s) && (s[i] == '+' || s[i] == '-') {
			i++
		}
		expStart := i
		for ; i < len(s) && isDigit(s[i]); i++ {
		}
		if i == expStart {
			d.off = i
			return n, d.fail("invalid number")
		}
	}
	n.lit = s[d.off:i]
	d.off = i
	return n, nil
}

// readDigits accumulates the digits of s from i into n.mant and returns
// the index after them.
func (n *numberLit) readDigits(s []byte, i int) int {
	for ; i < len(s); i++ {
		c := s[i] - '0'
		if c > 9 {
			break
		}
		n.mant = n.mant*10 + uint64(c)
	}
	return i
}

// pow10 holds the powers of ten a float64 represents exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// float64 converts the literal as strconv.ParseFloat(lit, 64) does. A
// literal with no exponent whose digits, read as one integer m, give
// m <= 2^53 and at most 22 fraction digits k takes ParseFloat's own exact
// path without its general parse: m and 10^k are exact float64s, and one
// IEEE division rounds m/10^k correctly.
func (n numberLit) float64() (float64, error) {
	if n.exp || n.digits > 19 || n.mant > 1<<53 || n.frac >= len(pow10) {
		return strconv.ParseFloat(string(n.lit), 64)
	}
	f := float64(n.mant)
	if n.frac > 0 {
		f /= pow10[n.frac]
	}
	if n.lit[0] == '-' {
		f = -f
	}
	return f, nil
}

// int64 converts the literal as strconv.ParseInt(lit, 10, 64) does: a
// fraction or an exponent is an error, and so is a value out of range.
func (n numberLit) int64() (int64, bool) {
	if n.frac > 0 || n.exp {
		return 0, false
	}
	if n.digits > 18 { // might overflow
		v, err := strconv.ParseInt(string(n.lit), 10, 64)
		return v, err == nil
	}
	v := int64(n.mant)
	if n.lit[0] == '-' {
		v = -v
	}
	return v, true
}

// skip consumes any one value, checking its syntax.
func (d *jsonDecoder) skip() error {
	switch c := d.peek(); {
	case c == '{':
		more, err := d.open('}')
		for err == nil && more {
			if _, err = d.key(nil); err == nil {
				if err = d.skip(); err == nil {
					more, err = d.next('}')
				}
			}
		}
		return err
	case c == '[':
		more, err := d.open(']')
		for err == nil && more {
			if err = d.skip(); err == nil {
				more, err = d.next(']')
			}
		}
		return err
	case c == '"':
		_, _, err := d.str()
		return err
	case c == '-' || isDigit(c):
		_, err := d.number()
		return err
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	default:
		return d.unexpected(c, "at the start of a value")
	}
}

// float decodes a number into *p.
func (d *jsonDecoder) float(p *float64) error {
	if c := d.peek(); c != '-' && !isDigit(c) {
		if c == 'n' {
			return d.literal("null")
		}
		return d.unexpected(c, "where a number belongs")
	}
	n, err := d.number()
	if err != nil {
		return err
	}
	v, err := n.float64()
	if err != nil {
		return d.fail("number %s out of float64 range", n.lit)
	}
	*p = v
	return nil
}

// integer decodes an integer literal into *p.
func integer[T ~int | ~int64](d *jsonDecoder, p *T) error {
	if c := d.peek(); c != '-' && !isDigit(c) {
		if c == 'n' {
			return d.literal("null")
		}
		return d.unexpected(c, "where an integer belongs")
	}
	n, err := d.number()
	if err != nil {
		return err
	}
	v, ok := n.int64()
	if !ok {
		return d.fail("number %s is not an int64", n.lit)
	}
	*p = T(v)
	return nil
}

// object decodes an object into a struct: field(f) decodes the value of
// the key naming fields[f], and an unknown key's value is skipped. null
// leaves the struct as it is.
func (d *jsonDecoder) object(fields []string, field func(f int) error) error {
	null, err := d.begin('{')
	if err != nil || null {
		return err
	}
	more, err := d.open('}')
	for err == nil && more {
		var f int
		if f, err = d.key(fields); err != nil {
			break
		}
		if f < 0 {
			err = d.skip()
		} else {
			err = field(f)
		}
		if err == nil {
			more, err = d.next('}')
		}
	}
	return err
}

// slice decodes an array into *p the way encoding/json does: element i
// decodes into (*p)[i] if the slice already holds it within its length or
// capacity, merging into what is there, and into a zero element appended
// otherwise; the slice is then cut to the array's length, an empty array
// gives a new empty slice, and null gives nil.
func slice[T any](d *jsonDecoder, p *[]T, elem func(*T) error) error {
	null, err := d.begin('[')
	if err != nil || null {
		if null {
			*p = nil
		}
		return err
	}
	s := *p
	more, err := d.open(']')
	n := 0
	for ; err == nil && more; n++ {
		switch {
		case n < len(s):
		case n < cap(s):
			s = s[:n+1]
		default:
			var zero T
			s = append(s, zero)
		}
		if err = elem(&s[n]); err == nil {
			more, err = d.next(']')
		}
	}
	switch {
	case err != nil:
		return err
	case n == 0:
		*p = []T{}
	default:
		*p = s[:n]
	}
	return nil
}

// array decodes an array into the Go array a views: extra elements are
// skipped, missing ones zeroed, and null leaves a as it is.
func array[T any](d *jsonDecoder, a []T, elem func(*T) error) error {
	null, err := d.begin('[')
	if err != nil || null {
		return err
	}
	more, err := d.open(']')
	n := 0
	for ; err == nil && more; n++ {
		if n < len(a) {
			err = elem(&a[n])
		} else {
			err = d.skip()
		}
		if err == nil {
			more, err = d.next(']')
		}
	}
	if err == nil && n < len(a) {
		clear(a[n:])
	}
	return err
}

func (d *jsonDecoder) dataset(w *jsonDataset) error {
	return d.object(datasetFields, func(f int) error {
		switch f {
		case 0:
			return d.float(&w.DurationDays)
		case 1:
			return slice(d, &w.Jobs, d.job)
		default:
			return slice(d, &w.Series, d.series)
		}
	})
}

func (d *jsonDecoder) job(j *JobRecord) error {
	return d.object(jobFields, func(f int) error {
		switch f {
		case 0:
			return integer(d, &j.JobID)
		case 1:
			return integer(d, &j.User)
		case 2:
			return integer(d, &j.Interface)
		case 3:
			return integer(d, &j.Exit)
		case 4:
			return d.float(&j.SubmitSec)
		case 5:
			return d.float(&j.WaitSec)
		case 6:
			return d.float(&j.RunSec)
		case 7:
			return d.float(&j.LimitSec)
		case 8:
			return integer(d, &j.NumGPUs)
		case 9:
			return integer(d, &j.CoresPerGPU)
		case 10:
			return integer(d, &j.Cores)
		case 11:
			return d.float(&j.MemGB)
		case 12:
			return d.perGPU(&j.PerGPU)
		case 13:
			return d.summaries(&j.GPU)
		case 14:
			return d.summary(&j.HostCPU)
		case 15:
			return integer(d, &j.Requeues)
		default:
			return d.float(&j.FailureLossSec)
		}
	})
}

// perGPU decodes a job's per-GPU digests. Into an empty slice (as in every
// well-formed body) they go to the shared arena; into one that an earlier
// duplicate key filled, slice merges them element by element.
func (d *jsonDecoder) perGPU(p *[]metrics.MetricSummaries) error {
	if cap(*p) > 0 {
		return slice(d, p, d.summaries)
	}
	null, err := d.begin('[')
	if err != nil || null {
		if null {
			*p = nil
		}
		return err
	}
	more, err := d.open(']')
	lo := len(d.arena)
	for err == nil && more {
		if len(d.arena) == cap(d.arena) {
			// Move this job's digests so far to a fresh chunk, so its
			// slice stays contiguous.
			chunk := make([]metrics.MetricSummaries, len(d.arena)-lo, max(perGPUChunk, 2*(len(d.arena)-lo)))
			copy(chunk, d.arena[lo:])
			d.arena, lo = chunk, 0
		}
		d.arena = d.arena[:len(d.arena)+1]
		if err = d.summaries(&d.arena[len(d.arena)-1]); err == nil {
			more, err = d.next(']')
		}
	}
	switch hi := len(d.arena); {
	case err != nil:
		return err
	case hi == lo:
		*p = []metrics.MetricSummaries{}
	default:
		*p = d.arena[lo:hi:hi]
	}
	return nil
}

func (d *jsonDecoder) summaries(p *metrics.MetricSummaries) error {
	return array(d, p[:], d.summary)
}

func (d *jsonDecoder) summary(p *metrics.SummaryRecord) error {
	return d.object(summaryFields, func(f int) error {
		switch f {
		case 0:
			return d.float(&p.Min)
		case 1:
			return d.float(&p.Mean)
		default:
			return d.float(&p.Max)
		}
	})
}

// series decodes one element of the series array: null clears the pointer,
// and an object decodes into the series it points to, allocated if there
// is none.
func (d *jsonDecoder) series(p **TimeSeries) error {
	if d.peek() == 'n' {
		*p = nil
		return d.literal("null")
	}
	if *p == nil {
		*p = new(TimeSeries)
	}
	ts := *p
	return d.object(seriesFields, func(f int) error {
		switch f {
		case 0:
			return integer(d, &ts.JobID)
		case 1:
			return d.float(&ts.IntervalSec)
		default:
			return slice(d, &ts.PerGPU, d.samples)
		}
	})
}

func (d *jsonDecoder) samples(p *[]metrics.Sample) error {
	return slice(d, p, d.sample)
}

func (d *jsonDecoder) sample(p *metrics.Sample) error {
	return d.object(sampleFields, func(f int) error {
		if f == 0 {
			return d.float(&p.TimeSec)
		}
		return array(d, p.Values[:], d.float)
	})
}
