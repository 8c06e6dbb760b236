package trace

import (
	"bytes"
	"testing"
)

func TestGzipCSVRoundTrip(t *testing.T) {
	d := NewDataset(125)
	for i := int64(1); i <= 50; i++ {
		d.Add(gpuJob(i, int(i)%5, float64(i)*60, 1+int(i)%3))
	}
	var buf bytes.Buffer
	if err := d.WriteCSVGZ(&buf); err != nil {
		t.Fatal(err)
	}
	var plain bytes.Buffer
	if err := d.WriteCSV(&plain); err != nil {
		t.Fatal(err)
	}
	if buf.Len() >= plain.Len() {
		t.Fatalf("gzip did not compress: %d vs %d bytes", buf.Len(), plain.Len())
	}
	back, err := ReadCSVGZ(&buf, 125)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Jobs) != 50 {
		t.Fatalf("round trip jobs = %d", len(back.Jobs))
	}
	// CSV drops per-GPU detail; compare the flattened record.
	got, want := back.Jobs[9], d.Jobs[9]
	if got.JobID != want.JobID || got.RunSec != want.RunSec || got.GPU != want.GPU {
		t.Fatalf("record mismatch: %+v vs %+v", got, want)
	}
}

func TestGzipJSONRoundTrip(t *testing.T) {
	d := NewDataset(125)
	d.Add(gpuJob(1, 0, 600, 2))
	var buf bytes.Buffer
	if err := d.WriteJSONGZ(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSONGZ(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Jobs) != 1 || len(back.Jobs[0].PerGPU) != 2 {
		t.Fatal("json gz round trip lost data")
	}
}

func TestGzipRejectsGarbage(t *testing.T) {
	if _, err := ReadCSVGZ(bytes.NewBufferString("not gzip"), 1); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ReadJSONGZ(bytes.NewBufferString("")); err == nil {
		t.Fatal("empty accepted")
	}
}

// TestGzipJSONRejectsCorruptTrailer: a gzip stream's CRC-32 and length are
// in its 8-byte trailer, after the last byte of the dataset, and gzip only
// checks them at EOF. ReadJSONGZ must read that far, so flipping a byte of
// either one fails the decode, as it fails ReadCSVGZ.
func TestGzipJSONRejectsCorruptTrailer(t *testing.T) {
	d := NewDataset(125)
	for i := int64(1); i <= 20; i++ {
		d.Add(gpuJob(i, int(i)%5, float64(i)*60, 1+int(i)%3))
	}
	var jsonGZ, csvGZ bytes.Buffer
	if err := d.WriteJSONGZ(&jsonGZ); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteCSVGZ(&csvGZ); err != nil {
		t.Fatal(err)
	}
	for _, field := range []struct {
		name string
		back int // offset of the flipped byte from the end of the stream
	}{{"crc32", 8}, {"isize", 4}} {
		flip := func(b []byte) []byte {
			b = bytes.Clone(b)
			b[len(b)-field.back] ^= 0xff
			return b
		}
		if _, err := ReadJSONGZ(bytes.NewReader(flip(jsonGZ.Bytes()))); err == nil {
			t.Errorf("ReadJSONGZ accepted a stream with a corrupt %s", field.name)
		}
		if _, err := ReadCSVGZ(bytes.NewReader(flip(csvGZ.Bytes())), 125); err == nil {
			t.Errorf("ReadCSVGZ accepted a stream with a corrupt %s", field.name)
		}
	}
}
