package netcdf

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
)

// magic bytes for CDF-1 (classic format).
var magic = []byte{'C', 'D', 'F', 1}

// pad4 returns n rounded up to a multiple of 4.
func pad4(n int) int { return (n + 3) &^ 3 }

// Encode renders the dataset in classic (CDF-1) format.
func Encode(f *File) ([]byte, error) {
	var buf bytes.Buffer
	buf.Write(magic)
	putU32(&buf, 0) // numrecs: no record dimension

	// dim_list
	if len(f.dims) == 0 {
		putU32(&buf, 0)
		putU32(&buf, 0)
	} else {
		putU32(&buf, tagDimension)
		putU32(&buf, uint32(len(f.dims)))
		for _, d := range f.dims {
			putName(&buf, d.Name)
			putU32(&buf, uint32(d.Len))
		}
	}

	// gatt_list
	if err := putAttrs(&buf, f.Attrs); err != nil {
		return nil, err
	}

	// var_list: encode twice; the first pass with zero offsets sizes the
	// header so the second pass can fill in real data offsets.
	offsets := make([]uint32, len(f.vars))
	header := encodeVarList(f, offsets)
	headerLen := buf.Len() + len(header)
	pos := pad4(headerLen)
	for i, v := range f.vars {
		offsets[i] = uint32(pos)
		pos += pad4(len(v.data))
		if pos < 0 || int64(pos) > math.MaxUint32 {
			return nil, fmt.Errorf("netcdf: file exceeds CDF-1 2 GiB offset limit")
		}
	}
	header = encodeVarList(f, offsets)
	buf.Write(header)
	for buf.Len() < pad4(headerLen) {
		buf.WriteByte(0)
	}
	for _, v := range f.vars {
		buf.Write(v.data)
		for p := len(v.data); p%4 != 0; p++ {
			buf.WriteByte(0)
		}
	}
	return buf.Bytes(), nil
}

func encodeVarList(f *File, offsets []uint32) []byte {
	var buf bytes.Buffer
	if len(f.vars) == 0 {
		putU32(&buf, 0)
		putU32(&buf, 0)
		return buf.Bytes()
	}
	putU32(&buf, tagVariable)
	putU32(&buf, uint32(len(f.vars)))
	for i, v := range f.vars {
		putName(&buf, v.Name)
		putU32(&buf, uint32(len(v.Dims)))
		for _, dn := range v.Dims {
			putU32(&buf, uint32(f.dimIdx[dn]))
		}
		// Attribute encoding cannot fail here: values were validated on Set.
		_ = putAttrs(&buf, v.Attrs)
		putU32(&buf, uint32(v.Type))
		putU32(&buf, uint32(pad4(len(v.data)))) // vsize includes padding
		putU32(&buf, offsets[i])                // begin
	}
	return buf.Bytes()
}

func putAttrs(buf *bytes.Buffer, a *Attrs) error {
	if a == nil || a.Len() == 0 {
		putU32(buf, 0)
		putU32(buf, 0)
		return nil
	}
	putU32(buf, tagAttribute)
	putU32(buf, uint32(a.Len()))
	for _, name := range a.names {
		v := a.values[name]
		putName(buf, name)
		putU32(buf, uint32(v.typ))
		putU32(buf, uint32(v.nelems()))
		start := buf.Len()
		switch v.typ {
		case Char:
			buf.WriteString(v.text)
		case Byte:
			for _, x := range v.i8 {
				buf.WriteByte(byte(x))
			}
		case Short:
			for _, x := range v.i16 {
				putU16(buf, uint16(x))
			}
		case Int:
			for _, x := range v.i32 {
				putU32(buf, uint32(x))
			}
		case Float:
			for _, x := range v.f32 {
				putU32(buf, math.Float32bits(x))
			}
		case Double:
			for _, x := range v.f64 {
				putU64(buf, math.Float64bits(x))
			}
		default:
			return fmt.Errorf("netcdf: attribute %q has invalid type %v", name, v.typ)
		}
		for (buf.Len()-start)%4 != 0 {
			buf.WriteByte(0)
		}
	}
	return nil
}

func putU16(buf *bytes.Buffer, v uint16) {
	var b [2]byte
	binary.BigEndian.PutUint16(b[:], v)
	buf.Write(b[:])
}

func putU32(buf *bytes.Buffer, v uint32) {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], v)
	buf.Write(b[:])
}

func putU64(buf *bytes.Buffer, v uint64) {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	buf.Write(b[:])
}

func putName(buf *bytes.Buffer, name string) {
	putU32(buf, uint32(len(name)))
	buf.WriteString(name)
	for p := len(name); p%4 != 0; p++ {
		buf.WriteByte(0)
	}
}

// Decode parses a classic-format NetCDF byte stream.
func Decode(data []byte) (*File, error) {
	d := &reader{buf: data}
	head, err := d.take(4)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(head[:3], magic[:3]) {
		return nil, fmt.Errorf("netcdf: bad magic %q", head[:3])
	}
	if head[3] != 1 {
		return nil, fmt.Errorf("netcdf: unsupported format version %d (only CDF-1 classic)", head[3])
	}
	numrecs, err := d.u32()
	if err != nil {
		return nil, err
	}
	if numrecs != 0 {
		return nil, fmt.Errorf("netcdf: record dimensions unsupported (numrecs=%d)", numrecs)
	}

	f := New()

	// dim_list
	tag, count, err := d.listHeader()
	if err != nil {
		return nil, err
	}
	if count > 0 && tag != tagDimension {
		return nil, fmt.Errorf("netcdf: expected dimension list, found tag %#x", tag)
	}
	for i := uint32(0); i < count; i++ {
		name, err := d.name()
		if err != nil {
			return nil, err
		}
		length, err := d.u32()
		if err != nil {
			return nil, err
		}
		if length == 0 {
			return nil, fmt.Errorf("netcdf: record dimension %q unsupported", name)
		}
		if err := f.AddDim(name, int(length)); err != nil {
			return nil, err
		}
	}

	// gatt_list
	if err := d.readAttrs(f.Attrs); err != nil {
		return nil, err
	}

	// var_list
	tag, count, err = d.listHeader()
	if err != nil {
		return nil, err
	}
	if count > 0 && tag != tagVariable {
		return nil, fmt.Errorf("netcdf: expected variable list, found tag %#x", tag)
	}
	type varHeader struct {
		v     *Var
		begin uint32
		size  uint32
	}
	// Cap the preallocation: count is untrusted input, and each header
	// costs at least 16 bytes of file, so a huge claimed count fails the
	// read loop long before it needs that capacity.
	prealloc := count
	if prealloc > 1024 {
		prealloc = 1024
	}
	headers := make([]varHeader, 0, prealloc)
	for i := uint32(0); i < count; i++ {
		name, err := d.name()
		if err != nil {
			return nil, err
		}
		ndims, err := d.u32()
		if err != nil {
			return nil, err
		}
		if ndims > 64 {
			return nil, fmt.Errorf("netcdf: variable %q has implausible rank %d", name, ndims)
		}
		dims := make([]string, ndims)
		for j := range dims {
			id, err := d.u32()
			if err != nil {
				return nil, err
			}
			if int(id) >= len(f.dims) {
				return nil, fmt.Errorf("netcdf: variable %q references dimension %d of %d", name, id, len(f.dims))
			}
			dims[j] = f.dims[id].Name
		}
		attrs := NewAttrs()
		if err := d.readAttrs(attrs); err != nil {
			return nil, err
		}
		typeCode, err := d.u32()
		if err != nil {
			return nil, err
		}
		t := Type(typeCode)
		if t.Size() == 0 {
			return nil, fmt.Errorf("netcdf: variable %q has unknown type %d", name, typeCode)
		}
		vsize, err := d.u32()
		if err != nil {
			return nil, err
		}
		begin, err := d.u32()
		if err != nil {
			return nil, err
		}
		headers = append(headers, varHeader{
			v:     &Var{Name: name, Type: t, Dims: dims, Attrs: attrs},
			begin: begin,
			size:  vsize,
		})
	}
	for _, h := range headers {
		elems, err := f.shape(h.v.Dims)
		if err != nil {
			return nil, fmt.Errorf("netcdf: variable %q: %w", h.v.Name, err)
		}
		nbytes := elems * h.v.Type.Size()
		if int(h.size) != pad4(nbytes) {
			return nil, fmt.Errorf("netcdf: variable %q: vsize %d, want %d", h.v.Name, h.size, pad4(nbytes))
		}
		end := int(h.begin) + nbytes
		if int(h.begin) < 0 || end > len(data) {
			return nil, fmt.Errorf("netcdf: variable %q data [%d,%d) outside file of %d bytes", h.v.Name, h.begin, end, len(data))
		}
		h.v.data = append([]byte(nil), data[h.begin:end]...)
		if err := f.addVar(h.v, elems, nbytes); err != nil {
			return nil, err
		}
	}
	return f, nil
}

func (d *reader) readAttrs(a *Attrs) error {
	tag, count, err := d.listHeader()
	if err != nil {
		return err
	}
	if count > 0 && tag != tagAttribute {
		return fmt.Errorf("netcdf: expected attribute list, found tag %#x", tag)
	}
	for i := uint32(0); i < count; i++ {
		name, err := d.name()
		if err != nil {
			return err
		}
		typeCode, err := d.u32()
		if err != nil {
			return err
		}
		t := Type(typeCode)
		if t.Size() == 0 {
			return fmt.Errorf("netcdf: attribute %q has unknown type %d", name, typeCode)
		}
		nelems, err := d.u32()
		if err != nil {
			return err
		}
		payload, err := d.take(pad4(int(nelems) * t.Size()))
		if err != nil {
			return err
		}
		payload = payload[:int(nelems)*t.Size()]
		switch t {
		case Char:
			err = a.SetString(name, string(payload))
		case Byte:
			vals := make([]int8, nelems)
			for j := range vals {
				vals[j] = int8(payload[j])
			}
			err = a.SetBytes(name, vals...)
		case Short:
			vals := make([]int16, nelems)
			for j := range vals {
				vals[j] = int16(binary.BigEndian.Uint16(payload[2*j:]))
			}
			err = a.SetShorts(name, vals...)
		case Int:
			vals := make([]int32, nelems)
			for j := range vals {
				vals[j] = int32(binary.BigEndian.Uint32(payload[4*j:]))
			}
			err = a.SetInts(name, vals...)
		case Float:
			vals := make([]float32, nelems)
			for j := range vals {
				vals[j] = math.Float32frombits(binary.BigEndian.Uint32(payload[4*j:]))
			}
			err = a.SetFloats(name, vals...)
		case Double:
			vals := make([]float64, nelems)
			for j := range vals {
				vals[j] = math.Float64frombits(binary.BigEndian.Uint64(payload[8*j:]))
			}
			err = a.SetDoubles(name, vals...)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

type reader struct {
	buf []byte
	pos int
}

func (d *reader) take(n int) ([]byte, error) {
	if n < 0 || d.pos+n > len(d.buf) {
		return nil, fmt.Errorf("netcdf: truncated file (need %d bytes at %d of %d)", n, d.pos, len(d.buf))
	}
	out := d.buf[d.pos : d.pos+n]
	d.pos += n
	return out, nil
}

func (d *reader) u32() (uint32, error) {
	b, err := d.take(4)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint32(b), nil
}

func (d *reader) listHeader() (tag, count uint32, err error) {
	tag, err = d.u32()
	if err != nil {
		return 0, 0, err
	}
	count, err = d.u32()
	if err != nil {
		return 0, 0, err
	}
	if tag == 0 && count != 0 {
		return 0, 0, fmt.Errorf("netcdf: absent list with nonzero count %d", count)
	}
	return tag, count, nil
}

func (d *reader) name() (string, error) {
	n, err := d.u32()
	if err != nil {
		return "", err
	}
	if n > 1<<20 {
		return "", fmt.Errorf("netcdf: implausible name length %d", n)
	}
	b, err := d.take(pad4(int(n)))
	if err != nil {
		return "", err
	}
	return string(b[:n]), nil
}
