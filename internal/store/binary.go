// The SNAPSBINv02 compact snapshot format.
//
// Wire layout (all multi-byte integers are unsigned varints unless noted;
// zigzag varints are marked "svarint"):
//
//	offset  size  field
//	0       8     magic "SNAPSBIN"
//	8       3     magic "v02"
//	11      ...   sections, each:
//	                1       tag byte
//	                varint  body length in bytes
//	                ...     body (exactly that many bytes)
//
// Sections appear in tag order and end with tagEnd (zero-length body):
//
//	tagMeta (1):    name string (varint len + bytes)
//	tagSymtab (2):  count, then per symbol: varint len + bytes. Local id 0
//	                is reserved for the empty string and not stored; the
//	                first stored symbol is local id 1, in first-use order
//	                over records then certificate causes.
//	tagRecords (3): count, then per record (ids are implicit 0..count-1):
//	                  cert varint, role byte, gender byte, flags byte,
//	                  first/sur/addr/occ local symbol ids (varints),
//	                  year svarint, truth svarint,
//	                  [flagGeo]   lat, lon (8 bytes each, IEEE 754 LE),
//	                  [flagHint]  birth hint svarint
//	tagCerts (4):   count, then per cert (ids implicit): type byte,
//	                  year svarint, age svarint, cause local symbol id,
//	                  role count byte, then per role: role byte, rec varint
//	tagClusters(5): count, then per cluster: len, then record ids as
//	                  svarint deltas from the previous id (first from -1)
//	tagEnd (6):     empty
//
// The decoder streams section bodies through a byte-counted reader: every
// allocation is bounded by bytes actually read, never by an
// attacker-controlled count or length prefix (counts are validated against
// the remaining body bytes — each element costs at least one byte — and
// strings are read in small chunks). Corrupt input of every kind returns
// an error; it must never panic or over-allocate.
package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"github.com/snaps/snaps/internal/model"
	"github.com/snaps/snaps/internal/symbol"
)

// magicV02 opens every snapshot; Read rejects a stream that starts otherwise.
var magicV02 = []byte("SNAPSBINv02")

// Section tags.
const (
	tagMeta     = 1
	tagSymtab   = 2
	tagRecords  = 3
	tagCerts    = 4
	tagClusters = 5
	tagEnd      = 6
)

// Record flags.
const (
	flagGeo  = 1 << 0
	flagHint = 1 << 1
)

// maxStringLen bounds any single stored string (names, addresses, causes,
// the data set name). Real values are tens of bytes; anything past this is
// corruption, rejected before the bytes are allocated. The writer refuses
// such a string too, so it never writes a snapshot the reader rejects.
const maxStringLen = 1 << 16

// ---------------------------------------------------------------- writer

// binWriter accumulates one section body and flushes it length-prefixed.
// err holds the first string over maxStringLen; flush returns it.
type binWriter struct {
	w   *bufio.Writer
	buf []byte
	tmp [binary.MaxVarintLen64]byte
	err error
}

func (b *binWriter) uvarint(v uint64) {
	n := binary.PutUvarint(b.tmp[:], v)
	b.buf = append(b.buf, b.tmp[:n]...)
}

func (b *binWriter) svarint(v int64) {
	n := binary.PutVarint(b.tmp[:], v)
	b.buf = append(b.buf, b.tmp[:n]...)
}

func (b *binWriter) byte(v byte) { b.buf = append(b.buf, v) }

func (b *binWriter) string(s string) {
	if len(s) > maxStringLen && b.err == nil {
		b.err = fmt.Errorf("store: string of %d bytes exceeds limit %d", len(s), maxStringLen)
	}
	b.uvarint(uint64(len(s)))
	b.buf = append(b.buf, s...)
}

func (b *binWriter) float(f float64) {
	var raw [8]byte
	binary.LittleEndian.PutUint64(raw[:], math.Float64bits(f))
	b.buf = append(b.buf, raw[:]...)
}

// flush writes the pending body as a section and resets the buffer.
func (b *binWriter) flush(tag byte) error {
	if b.err != nil {
		return b.err
	}
	if err := b.w.WriteByte(tag); err != nil {
		return err
	}
	n := binary.PutUvarint(b.tmp[:], uint64(len(b.buf)))
	if _, err := b.w.Write(b.tmp[:n]); err != nil {
		return err
	}
	if _, err := b.w.Write(b.buf); err != nil {
		return err
	}
	b.buf = b.buf[:0]
	return nil
}

// localSyms assigns dense per-file symbol ids in first-use order, so the
// stored table holds exactly the symbols this snapshot references and the
// file is byte-identical regardless of the process-global table's history.
type localSyms struct {
	ids  map[symbol.ID]uint64
	strs []string
}

func (l *localSyms) local(id symbol.ID) uint64 {
	if id == symbol.None {
		return 0
	}
	if lid, ok := l.ids[id]; ok {
		return lid
	}
	lid := uint64(len(l.strs) + 1)
	l.ids[id] = lid
	l.strs = append(l.strs, symbol.Str(id))
	return lid
}

// writeBinary emits the v02 stream (magic included, no buffering of the
// whole payload: one section body at a time).
func writeBinary(w *bufio.Writer, s *Snapshot) error {
	if _, err := w.Write(magicV02); err != nil {
		return err
	}
	b := &binWriter{w: w}
	d := s.Dataset

	// Collect the symbol universe in first-use order: record attributes,
	// then certificate causes. Causes are interned here (they are plain
	// strings on model.Certificate) so the symtab covers them too.
	ls := &localSyms{ids: map[symbol.ID]uint64{}}
	type recSyms struct{ first, sur, addr, occ uint64 }
	rs := make([]recSyms, len(d.Records))
	for i := range d.Records {
		r := &d.Records[i]
		rs[i] = recSyms{ls.local(r.First), ls.local(r.Sur), ls.local(r.Addr), ls.local(r.Occ)}
	}
	causes := make([]uint64, len(d.Certificates))
	for i := range d.Certificates {
		causes[i] = ls.local(symbol.Intern(d.Certificates[i].Cause))
	}

	// tagMeta
	b.string(d.Name)
	if err := b.flush(tagMeta); err != nil {
		return err
	}
	// tagSymtab
	b.uvarint(uint64(len(ls.strs)))
	for _, v := range ls.strs {
		b.string(v)
	}
	if err := b.flush(tagSymtab); err != nil {
		return err
	}
	// tagRecords
	b.uvarint(uint64(len(d.Records)))
	for i := range d.Records {
		r := &d.Records[i]
		b.uvarint(uint64(r.Cert))
		b.byte(byte(r.Role))
		b.byte(byte(r.Gender))
		var flags byte
		if r.Lat != 0 || r.Lon != 0 {
			flags |= flagGeo
		}
		if r.BirthHint != 0 {
			flags |= flagHint
		}
		b.byte(flags)
		b.uvarint(rs[i].first)
		b.uvarint(rs[i].sur)
		b.uvarint(rs[i].addr)
		b.uvarint(rs[i].occ)
		b.svarint(int64(r.Year))
		b.svarint(int64(r.Truth))
		if flags&flagGeo != 0 {
			b.float(r.Lat)
			b.float(r.Lon)
		}
		if flags&flagHint != 0 {
			b.svarint(int64(r.BirthHint))
		}
	}
	if err := b.flush(tagRecords); err != nil {
		return err
	}
	// tagCerts
	b.uvarint(uint64(len(d.Certificates)))
	for i := range d.Certificates {
		c := &d.Certificates[i]
		b.byte(byte(c.Type))
		b.svarint(int64(c.Year))
		b.svarint(int64(c.Age))
		b.uvarint(causes[i])
		nRoles := 0
		for role := model.Role(0); role < model.NumRoles; role++ {
			if _, ok := c.Roles[role]; ok {
				nRoles++
			}
		}
		b.byte(byte(nRoles))
		for role := model.Role(0); role < model.NumRoles; role++ {
			if rec, ok := c.Roles[role]; ok {
				b.byte(byte(role))
				b.uvarint(uint64(rec))
			}
		}
	}
	if err := b.flush(tagCerts); err != nil {
		return err
	}
	// tagClusters
	b.uvarint(uint64(len(s.Clusters)))
	for _, cluster := range s.Clusters {
		b.uvarint(uint64(len(cluster)))
		prev := int64(-1)
		for _, rec := range cluster {
			b.svarint(int64(rec) - prev)
			prev = int64(rec)
		}
	}
	if err := b.flush(tagClusters); err != nil {
		return err
	}
	return b.flush(tagEnd)
}

// ---------------------------------------------------------------- reader

// sectionReader is a byte-counted view of one section body. Every read is
// checked against the remaining byte budget, so a bogus length prefix can
// only make reads fail, never over-read into the next section; and every
// element decoded consumed at least one real byte, which is what caps
// count-driven allocations.
type sectionReader struct {
	r   *bufio.Reader
	rem uint64
}

func (s *sectionReader) ReadByte() (byte, error) {
	if s.rem == 0 {
		return 0, fmt.Errorf("store: section truncated")
	}
	c, err := s.r.ReadByte()
	if err != nil {
		return 0, fmt.Errorf("store: section truncated: %w", err)
	}
	s.rem--
	return c, nil
}

func (s *sectionReader) uvarint() (uint64, error) {
	v, err := binary.ReadUvarint(s)
	if err != nil {
		return 0, fmt.Errorf("store: bad varint: %w", err)
	}
	return v, nil
}

func (s *sectionReader) svarint() (int64, error) {
	v, err := binary.ReadVarint(s)
	if err != nil {
		return 0, fmt.Errorf("store: bad varint: %w", err)
	}
	return v, nil
}

// count reads an element count and validates it against the remaining
// bytes at the given minimum encoded size per element.
func (s *sectionReader) count(minElemBytes uint64) (int, error) {
	v, err := s.uvarint()
	if err != nil {
		return 0, err
	}
	if minElemBytes == 0 {
		minElemBytes = 1
	}
	// Divide instead of multiplying so a hostile count cannot overflow
	// the check itself.
	if v > s.rem/minElemBytes {
		return 0, fmt.Errorf("store: count %d exceeds section size", v)
	}
	return int(v), nil
}

// string reads a length-prefixed string, in bounded chunks so a bogus
// length cannot force a large allocation before hitting truncation.
func (s *sectionReader) string() (string, error) {
	n, err := s.uvarint()
	if err != nil {
		return "", err
	}
	if n > maxStringLen {
		return "", fmt.Errorf("store: string of %d bytes exceeds limit", n)
	}
	if n > s.rem {
		return "", fmt.Errorf("store: string of %d bytes exceeds section", n)
	}
	buf := make([]byte, 0, n)
	for uint64(len(buf)) < n {
		chunk := n - uint64(len(buf))
		if chunk > 4096 {
			chunk = 4096
		}
		start := len(buf)
		buf = buf[:uint64(start)+chunk]
		if _, err := io.ReadFull(s.r, buf[start:]); err != nil {
			return "", fmt.Errorf("store: string truncated: %w", err)
		}
		s.rem -= chunk
	}
	return string(buf), nil
}

func (s *sectionReader) float() (float64, error) {
	var raw [8]byte
	if s.rem < 8 {
		return 0, fmt.Errorf("store: section truncated")
	}
	if _, err := io.ReadFull(s.r, raw[:]); err != nil {
		return 0, fmt.Errorf("store: section truncated: %w", err)
	}
	s.rem -= 8
	return math.Float64frombits(binary.LittleEndian.Uint64(raw[:])), nil
}

// skipRest drains any unread body bytes (forward compatibility within a
// version is not attempted — sections are fully consumed or the file is
// rejected; this only discards padding-free exact bodies).
func (s *sectionReader) done() error {
	if s.rem != 0 {
		return fmt.Errorf("store: section has %d trailing bytes", s.rem)
	}
	return nil
}

// nextSection reads a section header. The 11-byte magic was already
// consumed by the caller.
func nextSection(r *bufio.Reader, wantTag byte) (*sectionReader, error) {
	tag, err := r.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("store: reading section tag: %w", err)
	}
	if tag != wantTag {
		return nil, fmt.Errorf("store: section tag %d, want %d", tag, wantTag)
	}
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, fmt.Errorf("store: reading section length: %w", err)
	}
	return &sectionReader{r: r, rem: n}, nil
}

// readBinary decodes the sections that follow the magic (already consumed
// and matched by Read).
func readBinary(r *bufio.Reader) (*Snapshot, error) {
	// tagMeta
	sec, err := nextSection(r, tagMeta)
	if err != nil {
		return nil, err
	}
	name, err := sec.string()
	if err != nil {
		return nil, err
	}
	if err := sec.done(); err != nil {
		return nil, err
	}

	// tagSymtab: local id -> global symbol id. Local 0 is the empty
	// string / symbol.None.
	sec, err = nextSection(r, tagSymtab)
	if err != nil {
		return nil, err
	}
	nSyms, err := sec.count(1)
	if err != nil {
		return nil, err
	}
	syms := make([]model.Sym, 0, capHint(nSyms))
	syms = append(syms, symbol.None)
	for i := 0; i < nSyms; i++ {
		v, err := sec.string()
		if err != nil {
			return nil, err
		}
		syms = append(syms, model.Intern(v))
	}
	if err := sec.done(); err != nil {
		return nil, err
	}
	sym := func(lid uint64) (model.Sym, error) {
		if lid >= uint64(len(syms)) {
			return 0, fmt.Errorf("store: symbol id %d of %d", lid, len(syms))
		}
		return syms[lid], nil
	}

	// tagRecords
	sec, err = nextSection(r, tagRecords)
	if err != nil {
		return nil, err
	}
	nRecs, err := sec.count(8) // minimum encoded record size
	if err != nil {
		return nil, err
	}
	d := &model.Dataset{Name: name}
	d.Records = make([]model.Record, 0, capHint(nRecs))
	for i := 0; i < nRecs; i++ {
		var rec model.Record
		rec.ID = model.RecordID(i)
		cert, err := sec.uvarint()
		if err != nil {
			return nil, err
		}
		rec.Cert = model.CertID(cert)
		role, err := sec.ReadByte()
		if err != nil {
			return nil, err
		}
		if model.Role(role) >= model.NumRoles {
			return nil, fmt.Errorf("store: record %d has role %d", i, role)
		}
		rec.Role = model.Role(role)
		gender, err := sec.ReadByte()
		if err != nil {
			return nil, err
		}
		rec.Gender = model.Gender(gender)
		flags, err := sec.ReadByte()
		if err != nil {
			return nil, err
		}
		for _, dst := range []*model.Sym{&rec.First, &rec.Sur, &rec.Addr, &rec.Occ} {
			lid, err := sec.uvarint()
			if err != nil {
				return nil, err
			}
			if *dst, err = sym(lid); err != nil {
				return nil, err
			}
		}
		year, err := sec.svarint()
		if err != nil {
			return nil, err
		}
		rec.Year = int(year)
		truth, err := sec.svarint()
		if err != nil {
			return nil, err
		}
		rec.Truth = model.PersonID(truth)
		if flags&flagGeo != 0 {
			if rec.Lat, err = sec.float(); err != nil {
				return nil, err
			}
			if rec.Lon, err = sec.float(); err != nil {
				return nil, err
			}
		}
		if flags&flagHint != 0 {
			hint, err := sec.svarint()
			if err != nil {
				return nil, err
			}
			rec.BirthHint = int(hint)
		}
		d.Records = append(d.Records, rec)
	}
	if err := sec.done(); err != nil {
		return nil, err
	}

	// tagCerts
	sec, err = nextSection(r, tagCerts)
	if err != nil {
		return nil, err
	}
	nCerts, err := sec.count(5)
	if err != nil {
		return nil, err
	}
	d.Certificates = make([]model.Certificate, 0, capHint(nCerts))
	for i := 0; i < nCerts; i++ {
		c := model.Certificate{ID: model.CertID(i)}
		typ, err := sec.ReadByte()
		if err != nil {
			return nil, err
		}
		c.Type = model.CertType(typ)
		year, err := sec.svarint()
		if err != nil {
			return nil, err
		}
		c.Year = int(year)
		age, err := sec.svarint()
		if err != nil {
			return nil, err
		}
		c.Age = int(age)
		lid, err := sec.uvarint()
		if err != nil {
			return nil, err
		}
		cause, err := sym(lid)
		if err != nil {
			return nil, err
		}
		c.Cause = symbol.Str(cause)
		nRoles, err := sec.ReadByte()
		if err != nil {
			return nil, err
		}
		if model.Role(nRoles) > model.NumRoles {
			return nil, fmt.Errorf("store: cert %d has %d roles", i, nRoles)
		}
		c.Roles = make(map[model.Role]model.RecordID, nRoles)
		for j := 0; j < int(nRoles); j++ {
			role, err := sec.ReadByte()
			if err != nil {
				return nil, err
			}
			if model.Role(role) >= model.NumRoles {
				return nil, fmt.Errorf("store: cert %d role %d invalid", i, role)
			}
			rec, err := sec.uvarint()
			if err != nil {
				return nil, err
			}
			if _, dup := c.Roles[model.Role(role)]; dup {
				return nil, fmt.Errorf("store: cert %d repeats role %d", i, role)
			}
			c.Roles[model.Role(role)] = model.RecordID(rec)
		}
		d.Certificates = append(d.Certificates, c)
	}
	if err := sec.done(); err != nil {
		return nil, err
	}

	// tagClusters
	sec, err = nextSection(r, tagClusters)
	if err != nil {
		return nil, err
	}
	nClusters, err := sec.count(3)
	if err != nil {
		return nil, err
	}
	clusters := make([][]model.RecordID, 0, capHint(nClusters))
	for i := 0; i < nClusters; i++ {
		n, err := sec.count(1)
		if err != nil {
			return nil, err
		}
		cluster := make([]model.RecordID, 0, capHint(n))
		prev := int64(-1)
		for j := 0; j < n; j++ {
			d, err := sec.svarint()
			if err != nil {
				return nil, err
			}
			prev += d
			if prev < 0 || prev > math.MaxInt32 {
				return nil, fmt.Errorf("store: cluster %d holds record id %d", i, prev)
			}
			cluster = append(cluster, model.RecordID(prev))
		}
		clusters = append(clusters, cluster)
	}
	if err := sec.done(); err != nil {
		return nil, err
	}

	// tagEnd
	sec, err = nextSection(r, tagEnd)
	if err != nil {
		return nil, err
	}
	if err := sec.done(); err != nil {
		return nil, err
	}

	if err := validate(d, clusters); err != nil {
		return nil, err
	}
	return &Snapshot{Dataset: d, Clusters: clusters}, nil
}

// capHint bounds pre-allocation from decoded counts: counts are already
// validated against section bytes, but very large honest sections should
// still grow geometrically instead of committing the full slab up front
// on hostile length-prefix + count combinations.
func capHint(n int) int {
	const max = 1 << 16
	if n > max {
		return max
	}
	return n
}
