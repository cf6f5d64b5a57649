package workload

import "testing"

// BenchmarkGenerate generates the 12 .big programs, program and image,
// as perfbench's detail-big set-up does, and reports the wall time and
// the image size per program (each image page is 4 KiB).
func BenchmarkGenerate(b *testing.B) {
	var params []Params
	for _, n := range BigNames() {
		p, ok := ParamsFor(n)
		if !ok {
			b.Fatalf("%s: no params", n)
		}
		params = append(params, p)
	}
	b.ReportAllocs()
	pages := 0
	for i := 0; i < b.N; i++ {
		pages = 0
		for _, p := range params {
			bm, err := Generate(p)
			if err != nil {
				b.Fatal(err)
			}
			pages += bm.image.PagesAllocated()
		}
	}
	programs := float64(len(params))
	b.ReportMetric(b.Elapsed().Seconds()*1e3/(float64(b.N)*programs), "ms/program")
	b.ReportMetric(float64(pages)*(4<<10)/1e6/programs, "MB/program")
}
