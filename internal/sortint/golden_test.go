package sortint

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"slices"
	"testing"

	"repro/internal/distgen"
	"repro/internal/rec"
)

// dtGolden is one committed TestDovetailOutputGolden result: the FNV-64a
// digest of the output records' bytes and the run's DovetailStats.
type dtGolden struct {
	digest                      uint64
	radix, dovetail, heavyPlace int64
}

// dtGoldenSizes straddle every cutoff of the recursion: the insertion
// cutoff, the sampling cutoff (2047/2048), the size-matched final pass
// (4096, 8192/8193), the parallel cutoff (32769) and the lib-unique size.
var dtGoldenSizes = []int{33, 300, 2047, 2048, 4096, 8192, 8193, 20000, seqCutoff + 1, 1 << 17, 1 << 19, 1 << 20}

// dtMix is a fixed 64-bit mixer (SplitMix64's finalizer) for the
// non-hashed shapes that need scrambled keys.
func dtMix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// dtShapes are the non-hashed key shapes: keys whose high bytes are all
// equal, so the top passes put every record in one bin.
var dtShapes = []struct {
	name string
	key  func(i, n int) uint64
}{
	{"sequential", func(i, n int) uint64 { return uint64(i) }},
	{"reversed", func(i, n int) uint64 { return uint64(n - 1 - i) }},
	{"shifted", func(i, n int) uint64 { return uint64(i) << 20 }},
	{"prefix7", func(i, n int) uint64 { return 0xabcdef012345<<16 | dtMix(uint64(i))%7 }},
	{"allequal", func(i, n int) uint64 { return 42 }},
	{"mod3000", func(i, n int) uint64 { return dtMix(uint64(i)) % 3000 }},
}

// dtGoldenInputs calls fn with every TestDovetailOutputGolden input of n
// records: the paper's Table-1 settings at n plus the non-hashed shapes.
// Value carries the input index.
func dtGoldenInputs(n int, fn func(name string, a []rec.Record)) {
	for _, s := range distgen.TableOneSettings(n) {
		fn(fmt.Sprintf("%s-%g/n=%d", s.Name, s.Param, n), distgen.Generate(2, n, s.Spec, 9))
	}
	for _, s := range dtShapes {
		a := make([]rec.Record, n)
		for i := range a {
			a[i] = rec.Record{Key: s.key(i, n), Value: uint64(i)}
		}
		fn(fmt.Sprintf("%s/n=%d", s.name, n), a)
	}
}

// dtDigest is the FNV-64a digest of out as little-endian Key, Value words.
func dtDigest(out []rec.Record) uint64 {
	h := fnv.New64a()
	buf := make([]byte, 0, 1<<12*rec.RecordSize)
	for len(out) > 0 {
		k := min(len(out), 1<<12)
		buf = buf[:0]
		for _, r := range out[:k] {
			buf = binary.LittleEndian.AppendUint64(buf, r.Key)
			buf = binary.LittleEndian.AppendUint64(buf, r.Value)
		}
		h.Write(buf)
		out = out[k:]
	}
	return h.Sum64()
}

// TestDovetailOutputGolden pins the byte-exact output and the routing
// counters of the dovetail recursion on every Table-1 distribution and
// six non-hashed shapes at sizes straddling its cutoffs, at Procs 1, 2
// and 4. The digests were recorded before small nodes finished in one
// size-matched pass, so any placement change shows up here. -short skips
// the two largest sizes.
func TestDovetailOutputGolden(t *testing.T) {
	seen := 0
	for _, n := range dtGoldenSizes {
		if testing.Short() && n > 1<<17 {
			continue
		}
		dtGoldenInputs(n, func(name string, in []rec.Record) {
			seen++
			var ref []rec.Record
			var refSt DovetailStats
			for _, procs := range []int{1, 2, 4} {
				a := slices.Clone(in)
				var st DovetailStats
				if err := DovetailSemisort(procs, a, &st); err != nil {
					t.Fatalf("%s/procs=%d: %v", name, procs, err)
				}
				if ref == nil {
					ref, refSt = a, st
					continue
				}
				if !slices.Equal(a, ref) || st != refSt {
					t.Fatalf("%s: procs=%d diverges from procs=1 (stats %+v vs %+v)", name, procs, st, refSt)
				}
			}
			got := dtGolden{dtDigest(ref), refSt.RadixNodes, refSt.DovetailNodes, refSt.HeavyKeysPlaced}
			want, ok := dovetailGoldens[name]
			if !ok {
				t.Errorf("no golden for %s; got\n\t%q: {%#x, %d, %d, %d},", name, name, got.digest, got.radix, got.dovetail, got.heavyPlace)
				return
			}
			if got != want {
				t.Errorf("%s: got %+v, want %+v", name, got, want)
			}
		})
	}
	if !testing.Short() && seen != len(dovetailGoldens) {
		t.Errorf("ran %d cases, %d goldens committed", seen, len(dovetailGoldens))
	}
}

// dovetailGoldens: see TestDovetailOutputGolden.
var dovetailGoldens = map[string]dtGolden{
	"exponential-100/n=33":         {0xb0e43de5e2aa4ff6, 0, 0, 0},
	"exponential-1000/n=33":        {0xb0e43de5e2aa4ff6, 0, 0, 0},
	"exponential-10000/n=33":       {0xb0e43de5e2aa4ff6, 0, 0, 0},
	"exponential-100000/n=33":      {0xb0e43de5e2aa4ff6, 0, 0, 0},
	"exponential-300000/n=33":      {0xb0e43de5e2aa4ff6, 0, 0, 0},
	"exponential-1e+06/n=33":       {0xb0e43de5e2aa4ff6, 0, 0, 0},
	"uniform-10/n=33":              {0x3b1e91086799e188, 0, 0, 0},
	"uniform-100000/n=33":          {0x3b1e91086799e188, 0, 0, 0},
	"uniform-320000/n=33":          {0x3b1e91086799e188, 0, 0, 0},
	"uniform-500000/n=33":          {0x3b1e91086799e188, 0, 0, 0},
	"uniform-1e+06/n=33":           {0x3b1e91086799e188, 0, 0, 0},
	"uniform-1e+08/n=33":           {0xaa806004e0284be5, 0, 0, 0},
	"zipfian-10000/n=33":           {0x305eed916d57d5b7, 0, 0, 0},
	"zipfian-100000/n=33":          {0x305eed916d57d5b7, 0, 0, 0},
	"zipfian-1e+06/n=33":           {0x305eed916d57d5b7, 0, 0, 0},
	"zipfian-1e+07/n=33":           {0x45afbad4519e9255, 0, 0, 0},
	"zipfian-1e+08/n=33":           {0x62d4657d7e2fe378, 0, 0, 0},
	"sequential/n=33":              {0x3f5b2b40f7d74a25, 0, 0, 0},
	"reversed/n=33":                {0x3ffa188cb18046a5, 0, 0, 0},
	"shifted/n=33":                 {0xbdd4946357f6c26f, 0, 0, 0},
	"prefix7/n=33":                 {0xddd0cc0b85ad0b83, 0, 0, 0},
	"allequal/n=33":                {0x5534c29d8b81aeaf, 0, 0, 0},
	"mod3000/n=33":                 {0xbb5dbdf27902f1ac, 0, 0, 0},
	"exponential-100/n=300":        {0x39af24f4292f131e, 0, 0, 0},
	"exponential-1000/n=300":       {0x39af24f4292f131e, 0, 0, 0},
	"exponential-10000/n=300":      {0x39af24f4292f131e, 0, 0, 0},
	"exponential-100000/n=300":     {0x39af24f4292f131e, 0, 0, 0},
	"exponential-300000/n=300":     {0x39af24f4292f131e, 0, 0, 0},
	"exponential-1e+06/n=300":      {0x6bb5fa4f62918187, 0, 0, 0},
	"uniform-10/n=300":             {0xc15a741b3c04dc95, 0, 0, 0},
	"uniform-100000/n=300":         {0xc15a741b3c04dc95, 0, 0, 0},
	"uniform-320000/n=300":         {0xc15a741b3c04dc95, 0, 0, 0},
	"uniform-500000/n=300":         {0xc15a741b3c04dc95, 0, 0, 0},
	"uniform-1e+06/n=300":          {0x4052cf5c0ee3ea93, 0, 0, 0},
	"uniform-1e+08/n=300":          {0x48d96ea42eda3ec, 0, 0, 0},
	"zipfian-10000/n=300":          {0xc9eed7c2798183cd, 0, 0, 0},
	"zipfian-100000/n=300":         {0xc9eed7c2798183cd, 0, 0, 0},
	"zipfian-1e+06/n=300":          {0xef9a50fb2407b829, 0, 0, 0},
	"zipfian-1e+07/n=300":          {0xed52f4b2729f0d24, 0, 0, 0},
	"zipfian-1e+08/n=300":          {0x71f236d046abf78e, 0, 0, 0},
	"sequential/n=300":             {0xfd7de8d01109d935, 0, 0, 0},
	"reversed/n=300":               {0x8f6cab64e1405535, 0, 0, 0},
	"shifted/n=300":                {0xb82f739d08393d61, 0, 0, 0},
	"prefix7/n=300":                {0x9d4e9ac164780554, 0, 0, 0},
	"allequal/n=300":               {0xffdf4377e5ddea51, 0, 0, 0},
	"mod3000/n=300":                {0xaf6aae6bc5f931ce, 0, 0, 0},
	"exponential-100/n=2047":       {0x68d0640557a68bfa, 0, 0, 0},
	"exponential-1000/n=2047":      {0x68d0640557a68bfa, 0, 0, 0},
	"exponential-10000/n=2047":     {0x68d0640557a68bfa, 0, 0, 0},
	"exponential-100000/n=2047":    {0xfd3dcb26eb3774e8, 0, 0, 0},
	"exponential-300000/n=2047":    {0xa6333aaa75e07152, 0, 0, 0},
	"exponential-1e+06/n=2047":     {0xa5f93d7392ad4d19, 0, 0, 0},
	"uniform-10/n=2047":            {0xeef2d26bd9db4b2, 0, 0, 0},
	"uniform-100000/n=2047":        {0x65518df75cc38a7e, 0, 0, 0},
	"uniform-320000/n=2047":        {0xeb3765df201ed2cf, 0, 0, 0},
	"uniform-500000/n=2047":        {0xd9ee3cae4a2a14c6, 0, 0, 0},
	"uniform-1e+06/n=2047":         {0x8b9692e8850e96a0, 0, 0, 0},
	"uniform-1e+08/n=2047":         {0x3527d6a6d5cd2744, 0, 0, 0},
	"zipfian-10000/n=2047":         {0xb62dfa4b2190b365, 0, 0, 0},
	"zipfian-100000/n=2047":        {0x23930a1f30ab2903, 0, 0, 0},
	"zipfian-1e+06/n=2047":         {0x1dc697ec142aa44b, 0, 0, 0},
	"zipfian-1e+07/n=2047":         {0xd4c57986cc4c2c9d, 0, 0, 0},
	"zipfian-1e+08/n=2047":         {0x2f4aaf562ff8150d, 0, 0, 0},
	"sequential/n=2047":            {0x3ad570eb74337979, 0, 0, 0},
	"reversed/n=2047":              {0x66538a44505dbf79, 0, 0, 0},
	"shifted/n=2047":               {0x3413e81b77ca19d6, 0, 0, 0},
	"prefix7/n=2047":               {0x657b3defa20f60c6, 0, 0, 0},
	"allequal/n=2047":              {0x3e265b0e58827fdd, 0, 0, 0},
	"mod3000/n=2047":               {0xd74ef9f4aab5429a, 0, 0, 0},
	"exponential-100/n=2048":       {0xef011475a19ceadd, 0, 1, 3},
	"exponential-1000/n=2048":      {0xef011475a19ceadd, 0, 1, 3},
	"exponential-10000/n=2048":     {0xef011475a19ceadd, 0, 1, 3},
	"exponential-100000/n=2048":    {0xede5d526475a0561, 0, 1, 5},
	"exponential-300000/n=2048":    {0xf6d3efb5faf0101a, 0, 1, 8},
	"exponential-1e+06/n=2048":     {0xbf2fa46488a7c8dc, 0, 1, 1},
	"uniform-10/n=2048":            {0x7380e27416be1125, 0, 1, 1},
	"uniform-100000/n=2048":        {0xfa4f5c309a257861, 0, 1, 2},
	"uniform-320000/n=2048":        {0x73fa552c855a7df1, 0, 1, 6},
	"uniform-500000/n=2048":        {0x2a49a2892719524e, 0, 1, 10},
	"uniform-1e+06/n=2048":         {0xf66dcfd0246c5aec, 0, 1, 8},
	"uniform-1e+08/n=2048":         {0x8b6afc45cb77fe15, 1, 0, 0},
	"zipfian-10000/n=2048":         {0xc99ca6708cad5525, 0, 1, 1},
	"zipfian-100000/n=2048":        {0xdaab4aeac5a0e157, 0, 1, 2},
	"zipfian-1e+06/n=2048":         {0x67e20e5950d5f8aa, 0, 1, 5},
	"zipfian-1e+07/n=2048":         {0x283cbff0a1387185, 0, 1, 4},
	"zipfian-1e+08/n=2048":         {0x9cdd429117474e4c, 0, 1, 2},
	"sequential/n=2048":            {0xb55e07bc90cef725, 7, 0, 0},
	"reversed/n=2048":              {0x794edd72396d2725, 7, 0, 0},
	"shifted/n=2048":               {0xb2747f8de6365665, 5, 0, 0},
	"prefix7/n=2048":               {0xef7fe87ca30f3877, 0, 1, 6},
	"allequal/n=2048":              {0x345df6b64c9bbd25, 0, 1, 1},
	"mod3000/n=2048":               {0xdfa79d1f4acf5898, 7, 0, 0},
	"exponential-100/n=4096":       {0x90f5d8c80f21ce55, 0, 1, 3},
	"exponential-1000/n=4096":      {0x90f5d8c80f21ce55, 0, 1, 3},
	"exponential-10000/n=4096":     {0x90f5d8c80f21ce55, 0, 1, 3},
	"exponential-100000/n=4096":    {0xbffe59f3d5c2bcb1, 0, 1, 6},
	"exponential-300000/n=4096":    {0xc8d9d986ece9fefc, 0, 1, 4},
	"exponential-1e+06/n=4096":     {0x8452501a71aabbf7, 0, 1, 1},
	"uniform-10/n=4096":            {0x662c40263b0e9f25, 0, 1, 1},
	"uniform-100000/n=4096":        {0x7ef7c747d26aac2e, 0, 1, 4},
	"uniform-320000/n=4096":        {0xec75e5284a865fd8, 0, 1, 11},
	"uniform-500000/n=4096":        {0xf1475d381bf14adb, 0, 1, 7},
	"uniform-1e+06/n=4096":         {0x1b2fcda119aad9b1, 0, 1, 4},
	"uniform-1e+08/n=4096":         {0x69e1406ad38f181a, 1, 0, 0},
	"zipfian-10000/n=4096":         {0xf9429aad48c5d325, 0, 1, 1},
	"zipfian-100000/n=4096":        {0xfff1d4f31618c749, 0, 1, 4},
	"zipfian-1e+06/n=4096":         {0xd18aa2a81fb28254, 0, 1, 3},
	"zipfian-1e+07/n=4096":         {0x63c1c81178edfc5b, 0, 1, 3},
	"zipfian-1e+08/n=4096":         {0x35b5ed8ee1b578dc, 0, 1, 3},
	"sequential/n=4096":            {0x1ae4ed9dc2389b25, 7, 0, 0},
	"reversed/n=4096":              {0xc97492018935a925, 7, 0, 0},
	"shifted/n=4096":               {0x68af940d74058ba5, 5, 0, 0},
	"prefix7/n=4096":               {0xa74a4ee7ebe1d5b9, 0, 1, 7},
	"allequal/n=4096":              {0x53a4d5a287061b25, 0, 1, 1},
	"mod3000/n=4096":               {0xeb854c3522e7431f, 7, 0, 0},
	"exponential-100/n=8192":       {0xe7bdf695bdcdd9ba, 0, 1, 2},
	"exponential-1000/n=8192":      {0xe7bdf695bdcdd9ba, 0, 1, 2},
	"exponential-10000/n=8192":     {0xe7bdf695bdcdd9ba, 0, 1, 2},
	"exponential-100000/n=8192":    {0xf53ab36e53313be, 0, 1, 6},
	"exponential-300000/n=8192":    {0x7251ed03e0bcd33a, 0, 1, 6},
	"exponential-1e+06/n=8192":     {0x30d46e8397d64bfd, 0, 1, 1},
	"uniform-10/n=8192":            {0x74accf0b92d90125, 0, 1, 1},
	"uniform-100000/n=8192":        {0x243334b4fe51c54e, 0, 1, 8},
	"uniform-320000/n=8192":        {0x10696a3478bb5271, 0, 1, 8},
	"uniform-500000/n=8192":        {0xda54f751365c56af, 0, 1, 6},
	"uniform-1e+06/n=8192":         {0x498417cd95109aeb, 0, 1, 2},
	"uniform-1e+08/n=8192":         {0xeff4a24506dbc35f, 1, 0, 0},
	"zipfian-10000/n=8192":         {0x36196e0ba6ae3b25, 0, 1, 1},
	"zipfian-100000/n=8192":        {0xbdddb92692805372, 0, 1, 8},
	"zipfian-1e+06/n=8192":         {0xb7cebe6443bbcb34, 0, 1, 4},
	"zipfian-1e+07/n=8192":         {0x730cf963b49cf245, 0, 1, 3},
	"zipfian-1e+08/n=8192":         {0xb1d0901d3d96c5c, 0, 1, 2},
	"sequential/n=8192":            {0xd888119332079f25, 7, 0, 0},
	"reversed/n=8192":              {0xd26bfddde6183725, 7, 0, 0},
	"shifted/n=8192":               {0xe9af0e16644add25, 6, 0, 0},
	"prefix7/n=8192":               {0x18bb09d5a4b76aa4, 0, 1, 7},
	"allequal/n=8192":              {0xd13026797227c125, 0, 1, 1},
	"mod3000/n=8192":               {0xbcc6ca98507a4d18, 7, 0, 0},
	"exponential-100/n=8193":       {0x1bb05dcbc3bffc47, 0, 1, 2},
	"exponential-1000/n=8193":      {0x1bb05dcbc3bffc47, 0, 1, 2},
	"exponential-10000/n=8193":     {0x1bb05dcbc3bffc47, 0, 1, 2},
	"exponential-100000/n=8193":    {0x9d86dc1d83db65cd, 0, 1, 6},
	"exponential-300000/n=8193":    {0x6709208095190f00, 0, 1, 6},
	"exponential-1e+06/n=8193":     {0xa22fb45a9644e237, 0, 1, 1},
	"uniform-10/n=8193":            {0x841ef0d2075db9a8, 0, 1, 1},
	"uniform-100000/n=8193":        {0xaa0943b75f360d28, 0, 1, 8},
	"uniform-320000/n=8193":        {0x228c8544b4db8cff, 0, 1, 8},
	"uniform-500000/n=8193":        {0x35a56bff76bcb235, 0, 1, 6},
	"uniform-1e+06/n=8193":         {0x8d58b66ec90a73f1, 0, 1, 2},
	"uniform-1e+08/n=8193":         {0x9519022cebae2dc7, 1, 0, 0},
	"zipfian-10000/n=8193":         {0x9966f971e9bd75d7, 0, 1, 1},
	"zipfian-100000/n=8193":        {0x791423e0400a6f92, 0, 1, 8},
	"zipfian-1e+06/n=8193":         {0x10594020bc6ba00d, 0, 1, 4},
	"zipfian-1e+07/n=8193":         {0xa435cbddd8400115, 0, 1, 3},
	"zipfian-1e+08/n=8193":         {0x393b38249e090d8e, 0, 1, 2},
	"sequential/n=8193":            {0xe3ab0358692dc325, 7, 0, 0},
	"reversed/n=8193":              {0xa03d39e36d8b9a5, 7, 0, 0},
	"shifted/n=8193":               {0x5439bc174edd6b27, 6, 0, 0},
	"prefix7/n=8193":               {0x368cf408896f20d, 0, 1, 7},
	"allequal/n=8193":              {0x75af822e3e6c82f, 0, 1, 1},
	"mod3000/n=8193":               {0xf98dbf52f8b49cec, 7, 0, 0},
	"exponential-100/n=20000":      {0x45c14f36b154ca69, 0, 1, 3},
	"exponential-1000/n=20000":     {0x45c14f36b154ca69, 0, 1, 3},
	"exponential-10000/n=20000":    {0x4e01907ef787a973, 0, 1, 4},
	"exponential-100000/n=20000":   {0x383ff97d9864ce50, 0, 1, 3},
	"exponential-300000/n=20000":   {0xc97ccb487e7cb2da, 0, 1, 1},
	"exponential-1e+06/n=20000":    {0x939da2870574cb02, 1, 0, 0},
	"uniform-10/n=20000":           {0xadde6e9ee0867ca5, 0, 1, 1},
	"uniform-100000/n=20000":       {0x4479a8caddaba475, 0, 1, 7},
	"uniform-320000/n=20000":       {0x413265ec5c442031, 0, 1, 1},
	"uniform-500000/n=20000":       {0x36809818eb3fde44, 1, 0, 0},
	"uniform-1e+06/n=20000":        {0xb36bbc930ef47de3, 1, 0, 0},
	"uniform-1e+08/n=20000":        {0xf1b88778e3b370b9, 1, 0, 0},
	"zipfian-10000/n=20000":        {0x6aa3dfd556714a97, 0, 1, 2},
	"zipfian-100000/n=20000":       {0x6f0808e2617c1efe, 0, 1, 4},
	"zipfian-1e+06/n=20000":        {0x9ea72d5b06e0cb74, 0, 1, 4},
	"zipfian-1e+07/n=20000":        {0xd1ff76db9af0b304, 0, 1, 4},
	"zipfian-1e+08/n=20000":        {0x719b311da60ce531, 0, 1, 1},
	"sequential/n=20000":           {0x56ede4b9da5624a5, 7, 0, 0},
	"reversed/n=20000":             {0xd250f83ac74813a5, 7, 0, 0},
	"shifted/n=20000":              {0xe0aed17ed4b72a05, 9, 0, 0},
	"prefix7/n=20000":              {0xcd096352f4f197be, 0, 2, 7},
	"allequal/n=20000":             {0xcb8812e16923c3e5, 0, 1, 1},
	"mod3000/n=20000":              {0x31f81819eebf1c20, 7, 0, 0},
	"exponential-100/n=32769":      {0x797775f59bc1c024, 0, 1, 3},
	"exponential-1000/n=32769":     {0x797775f59bc1c024, 0, 1, 3},
	"exponential-10000/n=32769":    {0xb2f9bdb8b22bf9a8, 0, 2, 6},
	"exponential-100000/n=32769":   {0xcd3e3416d03b2724, 0, 1, 2},
	"exponential-300000/n=32769":   {0x2cea8f1be4799213, 1, 0, 0},
	"exponential-1e+06/n=32769":    {0x4e9cae60300634fa, 1, 0, 0},
	"uniform-10/n=32769":           {0x2c1644b3ace979c8, 0, 1, 1},
	"uniform-100000/n=32769":       {0x70025f0dd022b27a, 0, 1, 6},
	"uniform-320000/n=32769":       {0x2e4efe6a282d0b32, 1, 0, 0},
	"uniform-500000/n=32769":       {0x39537637f4809994, 1, 0, 0},
	"uniform-1e+06/n=32769":        {0xe4dfb7649ae1e762, 1, 0, 0},
	"uniform-1e+08/n=32769":        {0xbf30321992b87343, 1, 0, 0},
	"zipfian-10000/n=32769":        {0x73f38b28bb38da94, 0, 1, 3},
	"zipfian-100000/n=32769":       {0xccd5ccf47a036894, 0, 1, 6},
	"zipfian-1e+06/n=32769":        {0xc92c26a1d1c93731, 0, 1, 2},
	"zipfian-1e+07/n=32769":        {0x65c418dd0508b125, 0, 1, 3},
	"zipfian-1e+08/n=32769":        {0xd3180e8343737fa0, 0, 1, 2},
	"sequential/n=32769":           {0x3da831d9dbc8cc65, 7, 0, 0},
	"reversed/n=32769":             {0x4d9d292095d80065, 7, 0, 0},
	"shifted/n=32769":              {0xa45eb752c3f7956d, 12, 0, 0},
	"prefix7/n=32769":              {0x8d94411e30fe7f79, 0, 2, 7},
	"allequal/n=32769":             {0x2804943cd10fc84f, 0, 1, 1},
	"mod3000/n=32769":              {0xbf7ad6b87f397357, 18, 0, 0},
	"exponential-100/n=131072":     {0x7ab8db14c07d0f7e, 0, 2, 4},
	"exponential-1000/n=131072":    {0x828ec87002766547, 0, 3, 5},
	"exponential-10000/n=131072":   {0x558c0f37407945dc, 0, 16, 21},
	"exponential-100000/n=131072":  {0xaff1fb0a74647346, 1, 2, 7},
	"exponential-300000/n=131072":  {0x42844d646658eb4e, 1, 0, 0},
	"exponential-1e+06/n=131072":   {0x9da3c9da78342450, 1, 0, 0},
	"uniform-10/n=131072":          {0xa93c6009959abb25, 0, 1, 1},
	"uniform-100000/n=131072":      {0xa2ceb7d30ae1fc99, 1, 7, 16},
	"uniform-320000/n=131072":      {0x5c63819227a3b079, 1, 1, 7},
	"uniform-500000/n=131072":      {0xe2362b531cecc889, 1, 0, 0},
	"uniform-1e+06/n=131072":       {0x1fa8fb10b58a182, 1, 0, 0},
	"uniform-1e+08/n=131072":       {0x4d2b924b74ab142, 1, 0, 0},
	"zipfian-10000/n=131072":       {0x134239ba12074686, 0, 8, 13},
	"zipfian-100000/n=131072":      {0x6c9bfa1e8ddf0b04, 0, 8, 16},
	"zipfian-1e+06/n=131072":       {0xc8c8de07a9ff5ae3, 0, 6, 10},
	"zipfian-1e+07/n=131072":       {0xc41d34ca846478e7, 0, 4, 7},
	"zipfian-1e+08/n=131072":       {0x9ae85108705f687b, 0, 6, 7},
	"sequential/n=131072":          {0x44f75f03cd84c325, 8, 0, 0},
	"reversed/n=131072":            {0xde261bee98a0f325, 8, 0, 0},
	"shifted/n=131072":             {0xf71fc48b6e25b0a5, 36, 0, 0},
	"prefix7/n=131072":             {0xbdfc5c9ab96c66a4, 0, 1, 7},
	"allequal/n=131072":            {0xfd73fb72ce547725, 0, 1, 1},
	"mod3000/n=131072":             {0x168b0d10f64b1a4c, 18, 1, 1},
	"exponential-100/n=524288":     {0x3b0430fe59141eb0, 0, 4, 6},
	"exponential-1000/n=524288":    {0x40c60541017ff65c, 0, 12, 20},
	"exponential-10000/n=524288":   {0xc1a65f47275bbda5, 1, 79, 121},
	"exponential-100000/n=524288":  {0x54ffae5471406e5, 1, 118, 618},
	"exponential-300000/n=524288":  {0x5876118724989469, 1, 124, 848},
	"exponential-1e+06/n=524288":   {0x71126da1c75e63c2, 3, 124, 360},
	"uniform-10/n=524288":          {0x3c180b2f799bd325, 0, 1, 1},
	"uniform-100000/n=524288":      {0xe0fd81411c118a53, 1, 96, 333},
	"uniform-320000/n=524288":      {0x82237b795202368c, 1, 122, 956},
	"uniform-500000/n=524288":      {0xb51161fe01075d18, 1, 124, 1142},
	"uniform-1e+06/n=524288":       {0x34d446eef1385446, 1, 132, 876},
	"uniform-1e+08/n=524288":       {0xba24188cf029d768, 132, 0, 0},
	"zipfian-10000/n=524288":       {0xa412cfbc58831762, 0, 48, 52},
	"zipfian-100000/n=524288":      {0xd1a381dd3a92dfd3, 0, 51, 115},
	"zipfian-1e+06/n=524288":       {0xc9020d65314a95f7, 0, 50, 126},
	"zipfian-1e+07/n=524288":       {0xb5856b5fc9903dbc, 0, 53, 119},
	"zipfian-1e+08/n=524288":       {0x240f6333b5cd62ba, 0, 52, 97},
	"sequential/n=524288":          {0xbc43ef1af1e3bb25, 14, 0, 0},
	"reversed/n=524288":            {0x13ec938c51041b25, 14, 0, 0},
	"shifted/n=524288":             {0x97105d3ef0c21ba5, 132, 0, 0},
	"prefix7/n=524288":             {0xda734399a7ef440a, 0, 1, 7},
	"allequal/n=524288":            {0x17cc87fbf3304325, 0, 1, 1},
	"mod3000/n=524288":             {0x9a6345bd73f4a2e5, 19, 0, 0},
	"exponential-100/n=1048576":    {0x7fdefec275457fd0, 0, 4, 7},
	"exponential-1000/n=1048576":   {0xaf8dc47bfb98d109, 0, 36, 41},
	"exponential-10000/n=1048576":  {0x516cbfec2db6b77b, 1, 136, 291},
	"exponential-100000/n=1048576": {0xc9b3d4ce27a4d39c, 1, 246, 1529},
	"exponential-300000/n=1048576": {0xbc215998a2ae6cb3, 2, 255, 1402},
	"exponential-1e+06/n=1048576":  {0x65d111dc63746928, 86, 171, 268},
	"uniform-10/n=1048576":         {0xc1e994cf61f4eb25, 0, 1, 1},
	"uniform-100000/n=1048576":     {0xff802395e749edac, 1, 207, 964},
	"uniform-320000/n=1048576":     {0xa3a0bb34c75c1bab, 1, 250, 2262},
	"uniform-500000/n=1048576":     {0xdc666a853c721bac, 1, 255, 1993},
	"uniform-1e+06/n=1048576":      {0x32d86f6894fb10c9, 10, 247, 784},
	"uniform-1e+08/n=1048576":      {0xbc31447d8853a298, 257, 0, 0},
	"zipfian-10000/n=1048576":      {0x7679b8d8270f1d6e, 0, 79, 98},
	"zipfian-100000/n=1048576":     {0xa2fffd187833d988, 0, 115, 390},
	"zipfian-1e+06/n=1048576":      {0x975a6a49943f5977, 0, 152, 514},
	"zipfian-1e+07/n=1048576":      {0x2715af880431adad, 0, 203, 563},
	"zipfian-1e+08/n=1048576":      {0xb333ff3265b6ce4d, 13, 234, 461},
	"sequential/n=1048576":         {0xd173b5221df23b25, 22, 0, 0},
	"reversed/n=1048576":           {0xad1843bf8b2f0325, 22, 0, 0},
	"shifted/n=1048576":            {0xc768a155a726c725, 260, 0, 0},
	"prefix7/n=1048576":            {0x674075b348649c26, 0, 2, 7},
	"allequal/n=1048576":           {0x784d79a85e09cb25, 0, 1, 1},
	"mod3000/n=1048576":            {0x12f8965cd1378f51, 19, 0, 0},
}
