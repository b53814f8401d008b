// Package hdf implements a compact, self-describing binary container for
// synthetic MODIS granules.
//
// NASA distributes MODIS Level-1B and Level-2 products as HDF4 files. HDF4
// is a large legacy format; reimplementing it would add nothing to the
// workflow being reproduced, so this package defines "HDF-lite": named
// n-dimensional typed datasets plus file-level attributes, little-endian,
// CRC-protected. Everything the EO-ML pipeline reads from a MODIS granule —
// calibrated radiance bands, geolocation arrays, cloud/land masks, product
// metadata — round-trips through this container, so the preprocessing code
// path (open granule, select bands, slice tiles) is exercised exactly as it
// would be against HDF4.
//
// Layout (all integers little-endian):
//
//	magic   [8]byte  "EOHDF1\n\x00"
//	nattrs  uint32
//	  per attr:  name (u16 len + bytes), kind u8, payload
//	ndatasets uint32
//	  per dataset: name (u16 len + bytes), dtype u8, rank u8,
//	               dims []uint32, nbytes uint64, raw values
//	crc32   uint32   IEEE CRC of all preceding bytes
//
// Decoding is zero-copy: the datasets of a File returned by Decode keep
// references into the decoded byte slice (Raw returns them), which the
// caller must therefore leave untouched while the File is in use. Read
// and ReadFile own the buffer they decode, so their Files are
// independent of anything the caller holds.
package hdf

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sort"
)

// Magic identifies an HDF-lite stream.
var Magic = [8]byte{'E', 'O', 'H', 'D', 'F', '1', '\n', 0}

// DType enumerates dataset element types.
type DType uint8

// Supported element types.
const (
	Uint8 DType = iota
	Int16
	Uint16
	Int32
	Float32
	Float64
)

// Size returns the byte width of one element.
func (d DType) Size() int {
	switch d {
	case Uint8:
		return 1
	case Int16, Uint16:
		return 2
	case Int32, Float32:
		return 4
	case Float64:
		return 8
	}
	return 0
}

// String names the dtype for diagnostics.
func (d DType) String() string {
	switch d {
	case Uint8:
		return "uint8"
	case Int16:
		return "int16"
	case Uint16:
		return "uint16"
	case Int32:
		return "int32"
	case Float32:
		return "float32"
	case Float64:
		return "float64"
	}
	return fmt.Sprintf("dtype(%d)", uint8(d))
}

// attribute kinds on the wire.
const (
	attrString uint8 = iota
	attrInt
	attrFloat
)

// Dataset is a named n-dimensional array of one element type. The raw
// backing buffer is little-endian regardless of host order.
type Dataset struct {
	Name  string
	DType DType
	Dims  []int
	raw   []byte
}

// Len returns the number of elements.
func (d *Dataset) Len() int {
	n := 1
	for _, dim := range d.Dims {
		n *= dim
	}
	if len(d.Dims) == 0 {
		return 0
	}
	return n
}

// Raw exposes the little-endian backing bytes (not a copy).
func (d *Dataset) Raw() []byte { return d.raw }

// NewFloat32 builds a float32 dataset; len(values) must equal the product
// of dims.
func NewFloat32(name string, dims []int, values []float32) (*Dataset, error) {
	d := &Dataset{Name: name, DType: Float32, Dims: append([]int(nil), dims...)}
	if err := d.checkLen(len(values)); err != nil {
		return nil, err
	}
	d.raw = make([]byte, 4*len(values))
	for i, v := range values {
		binary.LittleEndian.PutUint32(d.raw[4*i:], math.Float32bits(v))
	}
	return d, nil
}

// NewUint8 builds a uint8 dataset.
func NewUint8(name string, dims []int, values []uint8) (*Dataset, error) {
	d := &Dataset{Name: name, DType: Uint8, Dims: append([]int(nil), dims...)}
	if err := d.checkLen(len(values)); err != nil {
		return nil, err
	}
	d.raw = append([]byte(nil), values...)
	return d, nil
}

// NewInt16 builds an int16 dataset.
func NewInt16(name string, dims []int, values []int16) (*Dataset, error) {
	d := &Dataset{Name: name, DType: Int16, Dims: append([]int(nil), dims...)}
	if err := d.checkLen(len(values)); err != nil {
		return nil, err
	}
	d.raw = make([]byte, 2*len(values))
	for i, v := range values {
		binary.LittleEndian.PutUint16(d.raw[2*i:], uint16(v))
	}
	return d, nil
}

// NewUint16 builds a uint16 dataset. MODIS L1B scaled integers are uint16.
func NewUint16(name string, dims []int, values []uint16) (*Dataset, error) {
	d := &Dataset{Name: name, DType: Uint16, Dims: append([]int(nil), dims...)}
	if err := d.checkLen(len(values)); err != nil {
		return nil, err
	}
	d.raw = make([]byte, 2*len(values))
	for i, v := range values {
		binary.LittleEndian.PutUint16(d.raw[2*i:], v)
	}
	return d, nil
}

func (d *Dataset) checkLen(n int) error {
	if n != d.Len() {
		return fmt.Errorf("hdf: dataset %q: %d values for dims %v", d.Name, n, d.Dims)
	}
	for _, dim := range d.Dims {
		if dim <= 0 {
			return fmt.Errorf("hdf: dataset %q: non-positive dim in %v", d.Name, d.Dims)
		}
	}
	return nil
}

// Float32s decodes the dataset as float32 values. It errors if the dtype
// differs.
func (d *Dataset) Float32s() ([]float32, error) {
	if d.DType != Float32 {
		return nil, fmt.Errorf("hdf: dataset %q is %v, want float32", d.Name, d.DType)
	}
	out := make([]float32, d.Len())
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(d.raw[4*i:]))
	}
	return out, nil
}

// Float32sInto decodes the dataset into dst, which must have length
// Len(). It is Float32s without the allocation, for callers recycling
// granule scratch through an arena.
func (d *Dataset) Float32sInto(dst []float32) error {
	if d.DType != Float32 {
		return fmt.Errorf("hdf: dataset %q is %v, want float32", d.Name, d.DType)
	}
	if len(dst) != d.Len() {
		return fmt.Errorf("hdf: dataset %q: dst length %d, want %d", d.Name, len(dst), d.Len())
	}
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(d.raw[4*i:]))
	}
	return nil
}

// ScaledPlaneInto decodes plane p of a rank-3 uint16 dataset (MODIS L1B
// scaled integers, [band, y, x]) into dst as v*scale + offset, mapping
// the fill value to NaN. Decoding one selected plane at a time lets the
// caller skip the other bands entirely instead of materializing the
// full uint16 cube.
func (d *Dataset) ScaledPlaneInto(p int, scale, offset float64, fill uint16, dst []float32) error {
	if d.DType != Uint16 {
		return fmt.Errorf("hdf: dataset %q is %v, want uint16", d.Name, d.DType)
	}
	if len(d.Dims) != 3 {
		return fmt.Errorf("hdf: dataset %q rank %d, want 3", d.Name, len(d.Dims))
	}
	n := d.Dims[1] * d.Dims[2]
	if p < 0 || p >= d.Dims[0] {
		return fmt.Errorf("hdf: dataset %q plane %d out of range [0,%d)", d.Name, p, d.Dims[0])
	}
	if len(dst) != n {
		return fmt.Errorf("hdf: dataset %q: dst length %d, want %d", d.Name, len(dst), n)
	}
	raw := d.raw[2*p*n:]
	nan := float32(math.NaN())
	for i := 0; i < n; i++ {
		v := binary.LittleEndian.Uint16(raw[2*i:])
		if v == fill {
			dst[i] = nan
			continue
		}
		dst[i] = float32(float64(v)*scale + offset)
	}
	return nil
}

// Uint8s decodes the dataset as uint8 values.
func (d *Dataset) Uint8s() ([]uint8, error) {
	if d.DType != Uint8 {
		return nil, fmt.Errorf("hdf: dataset %q is %v, want uint8", d.Name, d.DType)
	}
	return append([]uint8(nil), d.raw...), nil
}

// Int16s decodes the dataset as int16 values.
func (d *Dataset) Int16s() ([]int16, error) {
	if d.DType != Int16 {
		return nil, fmt.Errorf("hdf: dataset %q is %v, want int16", d.Name, d.DType)
	}
	out := make([]int16, d.Len())
	for i := range out {
		out[i] = int16(binary.LittleEndian.Uint16(d.raw[2*i:]))
	}
	return out, nil
}

// Uint16s decodes the dataset as uint16 values.
func (d *Dataset) Uint16s() ([]uint16, error) {
	if d.DType != Uint16 {
		return nil, fmt.Errorf("hdf: dataset %q is %v, want uint16", d.Name, d.DType)
	}
	out := make([]uint16, d.Len())
	for i := range out {
		out[i] = binary.LittleEndian.Uint16(d.raw[2*i:])
	}
	return out, nil
}

// File is an in-memory HDF-lite granule: global attributes plus datasets.
type File struct {
	Attrs    map[string]any // string, int64 or float64 values
	datasets []*Dataset
	byName   map[string]*Dataset
}

// NewFile returns an empty granule.
func NewFile() *File {
	return &File{Attrs: map[string]any{}, byName: map[string]*Dataset{}}
}

// Add appends a dataset; names must be unique within the file.
func (f *File) Add(d *Dataset) error {
	if d == nil || d.Name == "" {
		return fmt.Errorf("hdf: empty dataset name")
	}
	if _, dup := f.byName[d.Name]; dup {
		return fmt.Errorf("hdf: duplicate dataset %q", d.Name)
	}
	f.datasets = append(f.datasets, d)
	f.byName[d.Name] = d
	return nil
}

// Dataset returns the named dataset or an error listing what exists.
func (f *File) Dataset(name string) (*Dataset, error) {
	if d, ok := f.byName[name]; ok {
		return d, nil
	}
	names := make([]string, 0, len(f.datasets))
	for _, d := range f.datasets {
		names = append(names, d.Name)
	}
	return nil, fmt.Errorf("hdf: no dataset %q (have %v)", name, names)
}

// Datasets returns datasets in insertion order.
func (f *File) Datasets() []*Dataset { return f.datasets }

// AttrString fetches a string attribute.
func (f *File) AttrString(name string) (string, bool) {
	s, ok := f.Attrs[name].(string)
	return s, ok
}

// AttrInt fetches an integer attribute.
func (f *File) AttrInt(name string) (int64, bool) {
	n, ok := f.Attrs[name].(int64)
	return n, ok
}

// AttrFloat fetches a float attribute.
func (f *File) AttrFloat(name string) (float64, bool) {
	x, ok := f.Attrs[name].(float64)
	return x, ok
}

type crcWriter struct {
	w   io.Writer
	crc hash.Hash32
}

func (cw *crcWriter) Write(p []byte) (int, error) {
	cw.crc.Write(p)
	return cw.w.Write(p)
}

// Write encodes the file to w.
func Write(w io.Writer, f *File) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	cw := &crcWriter{w: bw, crc: crc32.NewIEEE()}
	if _, err := cw.Write(Magic[:]); err != nil {
		return err
	}
	// Attributes in sorted order so encoding is deterministic.
	names := make([]string, 0, len(f.Attrs))
	for k := range f.Attrs {
		names = append(names, k)
	}
	sort.Strings(names)
	if err := writeU32(cw, uint32(len(names))); err != nil {
		return err
	}
	for _, k := range names {
		if err := writeString(cw, k); err != nil {
			return err
		}
		switch v := f.Attrs[k].(type) {
		case string:
			if err := writeByte(cw, attrString); err != nil {
				return err
			}
			if err := writeString(cw, v); err != nil {
				return err
			}
		case int64:
			if err := writeByte(cw, attrInt); err != nil {
				return err
			}
			if err := writeU64(cw, uint64(v)); err != nil {
				return err
			}
		case float64:
			if err := writeByte(cw, attrFloat); err != nil {
				return err
			}
			if err := writeU64(cw, math.Float64bits(v)); err != nil {
				return err
			}
		default:
			return fmt.Errorf("hdf: attribute %q has unsupported type %T", k, v)
		}
	}
	if err := writeU32(cw, uint32(len(f.datasets))); err != nil {
		return err
	}
	for _, d := range f.datasets {
		if err := writeString(cw, d.Name); err != nil {
			return err
		}
		if err := writeByte(cw, uint8(d.DType)); err != nil {
			return err
		}
		if len(d.Dims) > 255 {
			return fmt.Errorf("hdf: dataset %q rank %d too large", d.Name, len(d.Dims))
		}
		if err := writeByte(cw, uint8(len(d.Dims))); err != nil {
			return err
		}
		for _, dim := range d.Dims {
			if err := writeU32(cw, uint32(dim)); err != nil {
				return err
			}
		}
		if err := writeU64(cw, uint64(len(d.raw))); err != nil {
			return err
		}
		if _, err := cw.Write(d.raw); err != nil {
			return err
		}
	}
	var crcBuf [4]byte
	binary.LittleEndian.PutUint32(crcBuf[:], cw.crc.Sum32())
	if _, err := bw.Write(crcBuf[:]); err != nil {
		return err
	}
	return bw.Flush()
}

// Read decodes an HDF-lite stream, verifying magic and CRC.
func Read(r io.Reader) (*File, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return Decode(data)
}

// Decode decodes an HDF-lite byte slice, verifying magic and CRC. It
// does not copy dataset payloads: each returned Dataset's Raw aliases
// data, so the caller must not modify or reuse data while the File is in
// use. Read and ReadFile decode buffers they own.
func Decode(data []byte) (*File, error) {
	if len(data) < len(Magic)+4 {
		return nil, fmt.Errorf("hdf: truncated stream (%d bytes)", len(data))
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if string(body[:8]) != string(Magic[:]) {
		return nil, fmt.Errorf("hdf: bad magic %q", body[:8])
	}
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(tail); got != want {
		return nil, fmt.Errorf("hdf: CRC mismatch: file %08x, computed %08x", want, got)
	}
	d := &decoder{buf: body[8:]}
	f := NewFile()
	nattrs, err := d.u32()
	if err != nil {
		return nil, err
	}
	for i := uint32(0); i < nattrs; i++ {
		name, err := d.str()
		if err != nil {
			return nil, err
		}
		kind, err := d.byte()
		if err != nil {
			return nil, err
		}
		switch kind {
		case attrString:
			s, err := d.str()
			if err != nil {
				return nil, err
			}
			f.Attrs[name] = s
		case attrInt:
			v, err := d.u64()
			if err != nil {
				return nil, err
			}
			f.Attrs[name] = int64(v)
		case attrFloat:
			v, err := d.u64()
			if err != nil {
				return nil, err
			}
			f.Attrs[name] = math.Float64frombits(v)
		default:
			return nil, fmt.Errorf("hdf: attribute %q: unknown kind %d", name, kind)
		}
	}
	ndatasets, err := d.u32()
	if err != nil {
		return nil, err
	}
	for i := uint32(0); i < ndatasets; i++ {
		name, err := d.str()
		if err != nil {
			return nil, err
		}
		dtypeByte, err := d.byte()
		if err != nil {
			return nil, err
		}
		dtype := DType(dtypeByte)
		if dtype.Size() == 0 {
			return nil, fmt.Errorf("hdf: dataset %q: unknown dtype %d", name, dtypeByte)
		}
		rank, err := d.byte()
		if err != nil {
			return nil, err
		}
		dims := make([]int, rank)
		elems := 1
		for j := range dims {
			v, err := d.u32()
			if err != nil {
				return nil, err
			}
			dims[j] = int(v)
			elems *= dims[j]
		}
		nbytes, err := d.u64()
		if err != nil {
			return nil, err
		}
		if rank == 0 {
			elems = 0
		}
		if want := uint64(elems * dtype.Size()); nbytes != want {
			return nil, fmt.Errorf("hdf: dataset %q: %d bytes for dims %v of %v (want %d)", name, nbytes, dims, dtype, want)
		}
		raw, err := d.bytes(int(nbytes))
		if err != nil {
			return nil, err
		}
		// Alias the input rather than copy it; the cap stops an append
		// to one dataset's raw from overwriting the next dataset.
		ds := &Dataset{Name: name, DType: dtype, Dims: dims, raw: raw[:len(raw):len(raw)]}
		if err := f.Add(ds); err != nil {
			return nil, err
		}
	}
	if len(d.buf) != 0 {
		return nil, fmt.Errorf("hdf: %d trailing bytes", len(d.buf))
	}
	return f, nil
}

// WriteFile encodes f to path, replacing any existing file atomically via a
// temporary file and rename, so a crawler never observes a half-written
// granule.
func WriteFile(path string, f *File) error {
	tmp := path + ".tmp"
	out, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := Write(out, f); err != nil {
		_ = out.Close() // the Write error is the one worth reporting
		os.Remove(tmp)
		return err
	}
	if err := out.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// ReadFile decodes the granule at path.
func ReadFile(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	f, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

type decoder struct{ buf []byte }

func (d *decoder) bytes(n int) ([]byte, error) {
	if n < 0 || n > len(d.buf) {
		return nil, fmt.Errorf("hdf: truncated stream (need %d, have %d)", n, len(d.buf))
	}
	out := d.buf[:n]
	d.buf = d.buf[n:]
	return out, nil
}

func (d *decoder) byte() (uint8, error) {
	b, err := d.bytes(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (d *decoder) u32() (uint32, error) {
	b, err := d.bytes(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (d *decoder) u64() (uint64, error) {
	b, err := d.bytes(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

func (d *decoder) str() (string, error) {
	lb, err := d.bytes(2)
	if err != nil {
		return "", err
	}
	n := int(binary.LittleEndian.Uint16(lb))
	b, err := d.bytes(n)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

func writeByte(w io.Writer, b uint8) error {
	_, err := w.Write([]byte{b})
	return err
}

func writeU32(w io.Writer, v uint32) error {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], v)
	_, err := w.Write(buf[:])
	return err
}

func writeU64(w io.Writer, v uint64) error {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	_, err := w.Write(buf[:])
	return err
}

func writeString(w io.Writer, s string) error {
	if len(s) > math.MaxUint16 {
		return fmt.Errorf("hdf: string too long (%d bytes)", len(s))
	}
	var buf [2]byte
	binary.LittleEndian.PutUint16(buf[:], uint16(len(s)))
	if _, err := w.Write(buf[:]); err != nil {
		return err
	}
	_, err := io.WriteString(w, s)
	return err
}
