package comm

// The in-set index.  InSet.Ranges is the paper's Figure 5 array of
// records, and it is what the reproduction prices: Schedule.MemBytes
// counts the records and the executor charges ChargeSearch(NumRanges())
// — the O(log r) binary search — for every nonlocal reference.  On the
// host that search is a dozen dependent cache misses, so Find does not
// perform it.  It uses a directory built once per in set: per sender,
// the span [first Low .. last High] cut into power-of-two buckets,
// about one or two per record, each cell naming the first record that
// reaches into its bucket; a lookup is one shift, one cell load and a
// scan over the one or two records that follow.  The directory is O(r)
// int32 cells of host memory outside the cost model.

// inIndex is Find's directory over one in set's records.  It is
// immutable once built.
type inIndex struct {
	senders []senderDir // ascending home, as in Ranges
	slots   []int32     // open-addressed home -> index into senders, +1; 0 = empty
	cells   []int32     // all senders' bucket directories, each ending in a sentinel
}

// senderDir locates one sender's records, Ranges[first:end], holding n
// elements: they cover [lo..hi] in buckets of 1<<shift indices, and
// cells[base+b] is the first record whose High is at or beyond the
// start of bucket b (the sentinel after the last bucket names the
// sender's last record).  packed says the records' buffer slots are
// the n from buf on, in record order, so the sender's payload lands
// in one copy.
type senderDir struct {
	home       int
	lo, hi     int
	shift      uint
	base       int32
	first, end int32
	n, buf     int
	packed     bool
}

// buildIndex derives the directory from records sorted by
// (FromProc, Low).  Cost and size are O(len(ranges)).
func buildIndex(ranges []Range) *inIndex {
	nsend := 0
	for i, r := range ranges {
		if i == 0 || ranges[i-1].FromProc != r.FromProc {
			nsend++
		}
	}
	ix := &inIndex{
		senders: make([]senderDir, 0, nsend),
		cells:   make([]int32, 0, 2*len(ranges)+nsend), // per sender: at most two buckets per record, and a sentinel
	}
	for first := 0; first < len(ranges); {
		end := first + 1
		for end < len(ranges) && ranges[end].FromProc == ranges[first].FromProc {
			end++
		}
		sd := senderDir{
			home:   ranges[first].FromProc,
			lo:     ranges[first].Low,
			hi:     ranges[end-1].High,
			base:   int32(len(ix.cells)),
			first:  int32(first),
			end:    int32(end),
			buf:    ranges[first].Buf,
			packed: true,
		}
		for _, r := range ranges[first:end] {
			sd.packed = sd.packed && r.Buf == sd.buf+sd.n
			sd.n += r.Len()
		}
		for (sd.hi-sd.lo)>>sd.shift >= 2*(end-first) {
			sd.shift++
		}
		i := first
		for b := 0; b <= (sd.hi-sd.lo)>>sd.shift; b++ {
			for i < end-1 && ranges[i].High < sd.lo+b<<sd.shift {
				i++
			}
			ix.cells = append(ix.cells, int32(i))
		}
		ix.cells = append(ix.cells, int32(end-1))
		ix.senders = append(ix.senders, sd)
		first = end
	}
	n := 4
	for n < 2*nsend {
		n *= 2
	}
	ix.slots = make([]int32, n)
	for k, sd := range ix.senders {
		putCell(ix.slots, sd.home, int32(k+1))
	}
	return ix
}

// Find locates global element g coming from processor home and returns
// its offset in the communication buffer; ok is false when the element
// is not in the set.
//
// Ranges is the paper's representation and the priced one: callers
// charge the simulated O(log r) search with ChargeSearch(NumRanges()),
// and Schedule.MemBytes counts the records.  Find itself goes through
// the host-side directory of index.go — O(r) extra int32 cells that no
// cost-model figure includes — and takes constant time for any set
// whose records are spread evenly over each sender's span, O(log r)
// otherwise.
func (s *InSet) Find(home, g int) (buf int, ok bool) {
	ix := s.dir()
	sd := ix.sender(home)
	if sd == nil || g < sd.lo || g > sd.hi {
		return 0, false
	}
	// The record holding g, if any, is the first with High >= g; it
	// lies in [i, j] because Highs ascend within a sender.
	rs := s.Ranges
	b := int(sd.base) + (g-sd.lo)>>sd.shift
	i, j := int(ix.cells[b]), int(ix.cells[b+1])
	for j-i > 4 { // crowded bucket: halve it down to a short scan
		if m := int(uint(i+j) >> 1); rs[m].High < g {
			i = m + 1
		} else {
			j = m
		}
	}
	for rs[i].High < g {
		i++
	}
	r := &rs[i]
	if g < r.Low {
		return 0, false
	}
	return r.Buf + (g - r.Low), true
}

// sender returns home's directory entry, nil when home sends nothing.
func (ix *inIndex) sender(home int) *senderDir {
	for h, mask := hashCell(home, len(ix.slots)), len(ix.slots)-1; ; h = (h + 1) & mask {
		k := ix.slots[h]
		if k == 0 {
			return nil
		}
		if sd := &ix.senders[k-1]; sd.home == home {
			return sd
		}
	}
}

// FindRun is Find for the run of elements lo..hi, whoever sends them:
// the buffer offset of lo when the set holds every element of the run,
// from one sender, in consecutive buffer slots, so that element lo+k is
// at offset buf+k; ok is false otherwise.  Records hold their sender's
// elements only, and a sender's buffer slots follow its records in
// order, so the run is whole exactly when its ends are found from one
// sender as far apart in the buffer as in the index space.  The caller
// charges the search per element, as for Find.
func (s *InSet) FindRun(lo, hi int) (buf int, ok bool) {
	for _, sd := range s.dir().senders {
		if buf, ok = s.Find(sd.home, lo); ok {
			end, found := s.Find(sd.home, hi)
			return buf, found && end == buf+hi-lo
		}
	}
	return 0, false
}

// dir returns Find's directory.  An InSet literal builds it on first
// use: concurrent first calls may each build the same directory;
// whichever is stored last is as good.
func (s *InSet) dir() *inIndex {
	ix := s.index.Load()
	if ix == nil {
		ix = buildIndex(s.Ranges)
		s.index.Store(ix)
	}
	return ix
}
