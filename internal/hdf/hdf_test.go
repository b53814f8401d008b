package hdf

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"testing/quick"
)

func buildSample(t *testing.T) *File {
	t.Helper()
	f := NewFile()
	f.Attrs["product"] = "MOD021KM"
	f.Attrs["orbit"] = int64(88211)
	f.Attrs["scale"] = 0.015
	rad, err := NewFloat32("EV_1KM_RefSB", []int{2, 3, 4}, seq32(24))
	if err != nil {
		t.Fatal(err)
	}
	mask, err := NewUint8("CloudMask", []int{3, 4}, []uint8{0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	lat, err := NewInt16("Latitude", []int{4}, []int16{-32768, -1, 0, 32767})
	if err != nil {
		t.Fatal(err)
	}
	si, err := NewUint16("EV_SI", []int{2}, []uint16{0, 65535})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []*Dataset{rad, mask, lat, si} {
		if err := f.Add(d); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

func seq32(n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = float32(i) * 1.5
	}
	return out
}

func TestRoundTrip(t *testing.T) {
	f := buildSample(t)
	var buf bytes.Buffer
	if err := Write(&buf, f); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Attrs, f.Attrs) {
		t.Fatalf("attrs: got %#v want %#v", got.Attrs, f.Attrs)
	}
	if len(got.Datasets()) != 4 {
		t.Fatalf("datasets: %d", len(got.Datasets()))
	}
	rad, err := got.Dataset("EV_1KM_RefSB")
	if err != nil {
		t.Fatal(err)
	}
	vals, err := rad.Float32s()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(vals, seq32(24)) {
		t.Fatalf("radiance values differ: %v", vals)
	}
	if !reflect.DeepEqual(rad.Dims, []int{2, 3, 4}) {
		t.Fatalf("dims = %v", rad.Dims)
	}
	lat, _ := got.Dataset("Latitude")
	lv, err := lat.Int16s()
	if err != nil {
		t.Fatal(err)
	}
	if lv[0] != -32768 || lv[3] != 32767 {
		t.Fatalf("int16 extremes lost: %v", lv)
	}
	si, _ := got.Dataset("EV_SI")
	sv, err := si.Uint16s()
	if err != nil {
		t.Fatal(err)
	}
	if sv[1] != 65535 {
		t.Fatalf("uint16 extreme lost: %v", sv)
	}
}

// TestDecodeAliasesInput pins the zero-copy contract: every decoded
// dataset's Raw points into the input, and is capped so an append to it
// reallocates instead of overwriting the bytes that follow.
func TestDecodeAliasesInput(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, buildSample(t)); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	orig := bytes.Clone(data)
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range got.Datasets() {
		raw := d.Raw()
		if !pointsInto(raw, data) {
			t.Fatalf("dataset %q: Raw is a copy, not a view of the input", d.Name)
		}
		if cap(raw) != len(raw) {
			t.Fatalf("dataset %q: cap %d > len %d", d.Name, cap(raw), len(raw))
		}
		_ = append(raw, 0xAA, 0xBB, 0xCC, 0xDD)
	}
	if !bytes.Equal(data, orig) {
		t.Fatal("appending to a decoded dataset modified the input")
	}
}

// pointsInto reports whether sub's first byte is an element of buf.
func pointsInto(sub, buf []byte) bool {
	for i := range buf {
		if &buf[i] == &sub[0] {
			return true
		}
	}
	return false
}

func TestCRCDetectsCorruption(t *testing.T) {
	f := buildSample(t)
	var buf bytes.Buffer
	if err := Write(&buf, f); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, pos := range []int{8, len(data) / 2, len(data) - 5} {
		corrupt := append([]byte(nil), data...)
		corrupt[pos] ^= 0xFF
		if _, err := Decode(corrupt); err == nil {
			t.Errorf("corruption at byte %d not detected", pos)
		}
	}
}

func TestBadMagicRejected(t *testing.T) {
	if _, err := Decode([]byte("NOTHDF00xxxxxxxxxxxx")); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestTruncationRejected(t *testing.T) {
	f := buildSample(t)
	var buf bytes.Buffer
	if err := Write(&buf, f); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for n := 0; n < len(data); n += 7 {
		if _, err := Decode(data[:n]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
}

func TestDuplicateDatasetRejected(t *testing.T) {
	f := NewFile()
	d1, _ := NewUint8("x", []int{1}, []uint8{1})
	d2, _ := NewUint8("x", []int{1}, []uint8{2})
	if err := f.Add(d1); err != nil {
		t.Fatal(err)
	}
	if err := f.Add(d2); err == nil {
		t.Fatal("duplicate dataset accepted")
	}
}

func TestDimsMismatchRejected(t *testing.T) {
	if _, err := NewFloat32("x", []int{2, 2}, make([]float32, 3)); err == nil {
		t.Fatal("wrong value count accepted")
	}
	if _, err := NewFloat32("x", []int{0}, nil); err == nil {
		t.Fatal("zero dim accepted")
	}
	if _, err := NewFloat32("x", []int{-1}, nil); err == nil {
		t.Fatal("negative dim accepted")
	}
}

func TestWrongTypeAccessorErrors(t *testing.T) {
	d, _ := NewFloat32("x", []int{1}, []float32{1})
	if _, err := d.Uint8s(); err == nil {
		t.Error("Uint8s on float32 dataset succeeded")
	}
	if _, err := d.Int16s(); err == nil {
		t.Error("Int16s on float32 dataset succeeded")
	}
	if _, err := d.Uint16s(); err == nil {
		t.Error("Uint16s on float32 dataset succeeded")
	}
	u, _ := NewUint8("y", []int{1}, []uint8{1})
	if _, err := u.Float32s(); err == nil {
		t.Error("Float32s on uint8 dataset succeeded")
	}
}

func TestMissingDatasetErrorListsNames(t *testing.T) {
	f := buildSample(t)
	_, err := f.Dataset("nope")
	if err == nil {
		t.Fatal("missing dataset found")
	}
	if !bytes.Contains([]byte(err.Error()), []byte("EV_1KM_RefSB")) {
		t.Fatalf("error does not list available datasets: %v", err)
	}
}

func TestFileRoundTripOnDisk(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "MOD021KM.A2022001.0000.061.hdf")
	f := buildSample(t)
	if err := WriteFile(path, f); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Attrs["product"] != "MOD021KM" {
		t.Fatalf("attrs = %#v", got.Attrs)
	}
	// The temporary file must be gone after a successful write.
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temporary file left behind: %v", err)
	}
}

func TestUnsupportedAttrTypeRejected(t *testing.T) {
	f := NewFile()
	f.Attrs["bad"] = []string{"not", "supported"}
	if err := Write(&bytes.Buffer{}, f); err == nil {
		t.Fatal("unsupported attr type accepted")
	}
}

// Property: arbitrary float32 payloads (including NaN bit patterns and
// infinities) survive a write/read cycle bit-for-bit.
func TestRoundTripFloat32Property(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		count := int(n)%64 + 1
		vals := make([]float32, count)
		for i := range vals {
			switch r.Intn(5) {
			case 0:
				vals[i] = float32(math.Inf(1))
			case 1:
				vals[i] = float32(math.Inf(-1))
			case 2:
				vals[i] = float32(math.NaN())
			default:
				vals[i] = float32(r.NormFloat64() * 1e6)
			}
		}
		f := NewFile()
		d, err := NewFloat32("v", []int{count}, vals)
		if err != nil {
			return false
		}
		if err := f.Add(d); err != nil {
			return false
		}
		var buf bytes.Buffer
		if err := Write(&buf, f); err != nil {
			return false
		}
		got, err := Decode(buf.Bytes())
		if err != nil {
			return false
		}
		ds, err := got.Dataset("v")
		if err != nil {
			return false
		}
		back, err := ds.Float32s()
		if err != nil {
			return false
		}
		for i := range vals {
			if math.Float32bits(vals[i]) != math.Float32bits(back[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: attribute maps of the three supported kinds round-trip.
func TestRoundTripAttrsProperty(t *testing.T) {
	prop := func(strs map[string]string, ints map[string]int64) bool {
		f := NewFile()
		for k, v := range strs {
			f.Attrs["s:"+k] = v
		}
		for k, v := range ints {
			f.Attrs["i:"+k] = v
		}
		var buf bytes.Buffer
		if err := Write(&buf, f); err != nil {
			return false
		}
		got, err := Decode(buf.Bytes())
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got.Attrs, f.Attrs)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
