package sim

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/workload"
)

// pauseGoldenTargets are the RunUntilRetired stop points (total retired
// instructions, all cores) at which TestPausePointsGolden reads the
// machine.
var pauseGoldenTargets = []int64{300_000, 2_000_000, 4_000_000}

// eightCoreMix returns the named mix of workload.EightCoreMixes.
func eightCoreMix(t *testing.T, name string) workload.Mix {
	t.Helper()
	for _, m := range workload.EightCoreMixes() {
		if m.Name == name {
			return m
		}
	}
	t.Fatalf("no eight-core mix %q", name)
	return workload.Mix{}
}

// pausePointsText runs the skipping engine on one eight-core mix and
// renders, at each stop point, the pause clock and the per-core and
// per-L1 counters a lazily settled core must get exactly right.
func pausePointsText(t *testing.T, p Preset, mix workload.Mix) string {
	t.Helper()
	cfg := DefaultConfig(p, mix)
	// No core finishes inside the driven span: the stop rule alone ends
	// each segment.
	cfg.TargetInsts = 1 << 40
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, target := range pauseGoldenTargets {
		s.RunUntilRetired(target)
		fmt.Fprintf(&b, "%s/%s @%d clock=%d\n", mix.Name, p, target, s.Clock())
		for i, c := range s.Cores() {
			l1 := s.Hierarchy().L1s[i]
			fmt.Fprintf(&b, "  core%d retired=%d windowfull=%d loadstalls=%d storestalls=%d l1read=%d l1write=%d l1mshrfull=%d\n",
				i, c.Retired, c.WindowFull, c.LoadStalls, c.StoreStalls, l1.ReadAcc, l1.WriteAcc, l1.MSHRFullStalls)
		}
	}
	return b.String()
}

// TestPausePointsGolden pins where the skipping engine pauses a
// RunUntilRetired run and the exact counters it has settled there. The
// pause point is engine-specific (the skipping engine checks the stop
// rule only at the cycles it visits and at the end of each jump), so the
// dense loop cannot serve as the reference; the values below were
// recorded with the whole-machine jump engine and must not move while
// the skipping engine changes how it gets there.
func TestPausePointsGolden(t *testing.T) {
	var got strings.Builder
	for _, name := range []string{"mix-25-0", "mix-100-0"} {
		for _, p := range []Preset{Base, FIGCacheFast} {
			got.WriteString(pausePointsText(t, p, eightCoreMix(t, name)))
		}
	}
	if got.String() != pauseGolden {
		t.Errorf("pause points moved; got:\n%s\nwant:\n%s", got.String(), pauseGolden)
	}
}

const pauseGolden = `mix-25-0/Base @300000 clock=30960
  core0 retired=28966 windowfull=21200 loadstalls=49 storestalls=59 l1read=448 l1write=202 l1mshrfull=108
  core1 retired=34023 windowfull=19607 loadstalls=0 storestalls=0 l1read=351 l1write=161 l1mshrfull=0
  core2 retired=49062 windowfull=14562 loadstalls=0 storestalls=0 l1read=193 l1write=81 l1mshrfull=0
  core3 retired=40331 windowfull=17482 loadstalls=0 storestalls=0 l1read=205 l1write=87 l1mshrfull=0
  core4 retired=41381 windowfull=17116 loadstalls=0 storestalls=0 l1read=142 l1write=43 l1mshrfull=0
  core5 retired=41247 windowfull=17162 loadstalls=0 storestalls=0 l1read=189 l1write=78 l1mshrfull=0
  core6 retired=31531 windowfull=20422 loadstalls=0 storestalls=0 l1read=229 l1write=32 l1mshrfull=0
  core7 retired=33492 windowfull=19765 loadstalls=0 storestalls=0 l1read=250 l1write=12 l1mshrfull=0
mix-25-0/Base @2000000 clock=182412
  core0 retired=176058 windowfull=123865 loadstalls=275 storestalls=65 l1read=2685 l1write=892 l1mshrfull=340
  core1 retired=224408 windowfull=107926 loadstalls=151 storestalls=9 l1read=2455 l1write=1055 l1mshrfull=160
  core2 retired=300756 windowfull=82345 loadstalls=0 storestalls=0 l1read=1225 l1write=441 l1mshrfull=0
  core3 retired=262179 windowfull=95224 loadstalls=0 storestalls=0 l1read=1326 l1write=539 l1mshrfull=0
  core4 retired=310903 windowfull=78963 loadstalls=0 storestalls=0 l1read=1048 l1write=342 l1mshrfull=0
  core5 retired=271131 windowfull=92201 loadstalls=0 storestalls=0 l1read=1171 l1write=527 l1mshrfull=0
  core6 retired=187253 windowfull=120263 loadstalls=0 storestalls=0 l1read=1392 l1write=170 l1mshrfull=0
  core7 retired=267318 windowfull=93612 loadstalls=0 storestalls=0 l1read=1961 l1write=99 l1mshrfull=0
mix-25-0/Base @4000000 clock=365592
  core0 retired=344083 windowfull=251071 loadstalls=741 storestalls=75 l1read=5491 l1write=1652 l1mshrfull=816
  core1 retired=452870 windowfull=215505 loadstalls=181 storestalls=13 l1read=4951 l1write=2046 l1mshrfull=194
  core2 retired=602944 windowfull=165083 loadstalls=0 storestalls=0 l1read=2479 l1write=854 l1mshrfull=0
  core3 retired=540558 windowfull=185919 loadstalls=0 storestalls=0 l1read=2709 l1write=1129 l1mshrfull=0
  core4 retired=616417 windowfull=160570 loadstalls=0 storestalls=0 l1read=2091 l1write=664 l1mshrfull=0
  core5 retired=530233 windowfull=189258 loadstalls=0 storestalls=0 l1read=2273 l1write=1042 l1mshrfull=0
  core6 retired=373006 windowfull=241871 loadstalls=0 storestalls=0 l1read=2781 l1write=327 l1mshrfull=0
  core7 retired=539890 windowfull=186340 loadstalls=0 storestalls=0 l1read=3957 l1write=211 l1mshrfull=0
mix-25-0/FIGCache-Fast @300000 clock=32613
  core0 retired=23724 windowfull=24477 loadstalls=77 storestalls=135 l1read=406 l1write=250 l1mshrfull=212
  core1 retired=34455 windowfull=21117 loadstalls=0 storestalls=0 l1read=356 l1write=162 l1mshrfull=0
  core2 retired=51497 windowfull=15406 loadstalls=0 storestalls=0 l1read=205 l1write=84 l1mshrfull=0
  core3 retired=38071 windowfull=19882 loadstalls=0 storestalls=0 l1read=192 l1write=84 l1mshrfull=0
  core4 retired=49980 windowfull=15918 loadstalls=0 storestalls=0 l1read=170 l1write=51 l1mshrfull=0
  core5 retired=40983 windowfull=18905 loadstalls=0 storestalls=0 l1read=188 l1write=78 l1mshrfull=0
  core6 retired=26931 windowfull=23596 loadstalls=0 storestalls=0 l1read=197 l1write=27 l1mshrfull=0
  core7 retired=34365 windowfull=21125 loadstalls=0 storestalls=0 l1read=257 l1write=12 l1mshrfull=0
mix-25-0/FIGCache-Fast @2000000 clock=204210
  core0 retired=146011 windowfull=154992 loadstalls=735 storestalls=145 l1read=2725 l1write=845 l1mshrfull=880
  core1 retired=222469 windowfull=130207 loadstalls=152 storestalls=139 l1read=2437 l1write=1175 l1mshrfull=291
  core2 retired=322197 windowfull=97031 loadstalls=0 storestalls=0 l1read=1314 l1write=472 l1mshrfull=0
  core3 retired=267472 windowfull=115242 loadstalls=0 storestalls=0 l1read=1346 l1write=554 l1mshrfull=0
  core4 retired=342652 windowfull=90212 loadstalls=0 storestalls=0 l1read=1154 l1write=380 l1mshrfull=0
  core5 retired=264759 windowfull=116112 loadstalls=0 storestalls=0 l1read=1147 l1write=513 l1mshrfull=0
  core6 retired=163023 windowfull=150085 loadstalls=0 storestalls=0 l1read=1210 l1write=150 l1mshrfull=0
  core7 retired=271429 windowfull=114041 loadstalls=0 storestalls=0 l1read=1993 l1write=100 l1mshrfull=0
mix-25-0/FIGCache-Fast @4000000 clock=405451
  core0 retired=303575 windowfull=303660 loadstalls=1161 storestalls=217 l1read=5349 l1write=1615 l1mshrfull=1378
  core1 retired=442632 windowfull=258478 loadstalls=238 storestalls=166 l1read=4898 l1write=2159 l1mshrfull=404
  core2 retired=636149 windowfull=193924 loadstalls=0 storestalls=0 l1read=2612 l1write=902 l1mshrfull=0
  core3 retired=535793 windowfull=227336 loadstalls=0 storestalls=0 l1read=2684 l1write=1121 l1mshrfull=0
  core4 retired=679400 windowfull=179510 loadstalls=0 storestalls=0 l1read=2303 l1write=739 l1mshrfull=0
  core5 retired=520848 windowfull=232220 loadstalls=0 storestalls=0 l1read=2231 l1write=1027 l1mshrfull=0
  core6 retired=323933 windowfull=297953 loadstalls=0 storestalls=0 l1read=2405 l1write=295 l1mshrfull=0
  core7 retired=557671 windowfull=220286 loadstalls=0 storestalls=0 l1read=4078 l1write=218 l1mshrfull=0
mix-100-0/Base @300000 clock=41513
  core0 retired=37931 windowfull=28805 loadstalls=41 storestalls=59 l1read=565 l1write=240 l1mshrfull=100
  core1 retired=43985 windowfull=26879 loadstalls=0 storestalls=0 l1read=457 l1write=204 l1mshrfull=0
  core2 retired=19579 windowfull=31612 loadstalls=2810 storestalls=562 l1read=3267 l1write=649 l1mshrfull=3372
  core3 retired=40469 windowfull=27906 loadstalls=79 storestalls=84 l1read=515 l1write=340 l1mshrfull=163
  core4 retired=39082 windowfull=28405 loadstalls=184 storestalls=0 l1read=839 l1write=160 l1mshrfull=184
  core5 retired=48988 windowfull=25228 loadstalls=0 storestalls=0 l1read=498 l1write=195 l1mshrfull=0
  core6 retired=38479 windowfull=26468 loadstalls=936 storestalls=1361 l1read=1459 l1write=1741 l1mshrfull=2297
  core7 retired=31492 windowfull=30723 loadstalls=330 storestalls=8 l1read=917 l1write=128 l1mshrfull=338
mix-100-0/Base @2000000 clock=280251
  core0 retired=235343 windowfull=201526 loadstalls=837 storestalls=119 l1read=4068 l1write=1220 l1mshrfull=956
  core1 retired=295856 windowfull=182058 loadstalls=166 storestalls=98 l1read=3239 l1write=1465 l1mshrfull=264
  core2 retired=140349 windowfull=217461 loadstalls=14358 storestalls=2127 l1read=17611 l1write=2707 l1mshrfull=16485
  core3 retired=279541 windowfull=186761 loadstalls=437 storestalls=609 l1read=3451 l1write=2254 l1mshrfull=1046
  core4 retired=263660 windowfull=192594 loadstalls=874 storestalls=12 l1read=5178 l1write=1128 l1mshrfull=886
  core5 retired=315164 windowfull=175689 loadstalls=147 storestalls=39 l1read=3195 l1write=1340 l1mshrfull=186
  core6 retired=251346 windowfull=183351 loadstalls=7689 storestalls=6429 l1read=11174 l1write=8837 l1mshrfull=14118
  core7 retired=218741 windowfull=206572 loadstalls=1385 storestalls=188 l1read=5290 l1write=1123 l1mshrfull=1573
mix-100-0/Base @4000000 clock=561500
  core0 retired=469692 windowfull=404598 loadstalls=1591 storestalls=141 l1read=8063 l1write=2297 l1mshrfull=1732
  core1 retired=593464 windowfull=364800 loadstalls=169 storestalls=141 l1read=6405 l1write=2806 l1mshrfull=310
  core2 retired=282064 windowfull=442898 loadstalls=22530 storestalls=3075 l1read=29117 l1write=4210 l1mshrfull=25605
  core3 retired=572977 windowfull=370214 loadstalls=1078 storestalls=793 l1read=7255 l1write=4139 l1mshrfull=1871
  core4 retired=534805 windowfull=384036 loadstalls=1456 storestalls=100 l1read=10204 l1write=2347 l1mshrfull=1556
  core5 retired=612334 windowfull=358482 loadstalls=164 storestalls=92 l1read=6074 l1write=2615 l1mshrfull=256
  core6 retired=501361 windowfull=369416 loadstalls=16312 storestalls=10767 l1read=23394 l1write=15474 l1mshrfull=27079
  core7 retired=433303 windowfull=414881 loadstalls=3171 storestalls=627 l1read=10896 l1write=2526 l1mshrfull=3798
mix-100-0/FIGCache-Fast @300000 clock=48895
  core0 retired=33981 windowfull=37367 loadstalls=85 storestalls=131 l1read=554 l1write=295 l1mshrfull=216
  core1 retired=46972 windowfull=33268 loadstalls=0 storestalls=0 l1read=490 l1write=214 l1mshrfull=0
  core2 retired=18320 windowfull=39997 loadstalls=2583 storestalls=202 l1read=3012 l1write=283 l1mshrfull=2785
  core3 retired=42681 windowfull=34384 loadstalls=205 storestalls=116 l1read=666 l1write=386 l1mshrfull=321
  core4 retired=40561 windowfull=35366 loadstalls=119 storestalls=0 l1read=798 l1write=165 l1mshrfull=119
  core5 retired=51648 windowfull=31719 loadstalls=0 storestalls=0 l1read=526 l1write=204 l1mshrfull=0
  core6 retired=39356 windowfull=32254 loadstalls=2081 storestalls=1523 l1read=2616 l1write=1911 l1mshrfull=3604
  core7 retired=26490 windowfull=39785 loadstalls=293 storestalls=7 l1read=788 l1write=109 l1mshrfull=300
mix-100-0/FIGCache-Fast @2000000 clock=330163
  core0 retired=211029 windowfull=259474 loadstalls=754 storestalls=146 l1read=3661 l1write=1120 l1mshrfull=900
  core1 retired=308571 windowfull=227620 loadstalls=183 storestalls=160 l1read=3386 l1write=1586 l1mshrfull=343
  core2 retired=124155 windowfull=275251 loadstalls=11884 storestalls=2054 l1read=14758 l1write=2566 l1mshrfull=13938
  core3 retired=289269 windowfull=233302 loadstalls=786 storestalls=350 l1read=3907 l1write=2048 l1mshrfull=1136
  core4 retired=292215 windowfull=232450 loadstalls=1213 storestalls=358 l1read=5977 l1write=1589 l1mshrfull=1571
  core5 retired=318567 windowfull=224211 loadstalls=126 storestalls=257 l1read=3211 l1write=1570 l1mshrfull=383
  core6 retired=272675 windowfull=214526 loadstalls=15003 storestalls=10822 l1read=18803 l1write=13424 l1mshrfull=25825
  core7 retired=183521 windowfull=266920 loadstalls=2575 storestalls=88 l1read=5865 l1write=863 l1mshrfull=2663
mix-100-0/FIGCache-Fast @4000000 clock=609260
  core0 retired=472282 windowfull=451822 loadstalls=888 storestalls=401 l1read=7394 l1write=2572 l1mshrfull=1289
  core1 retired=590313 windowfull=413439 loadstalls=257 storestalls=164 l1read=6460 l1write=2813 l1mshrfull=421
  core2 retired=359306 windowfull=469300 loadstalls=18503 storestalls=2967 l1read=26867 l1write=4432 l1mshrfull=21470
  core3 retired=543090 windowfull=427379 loadstalls=1496 storestalls=730 l1read=7344 l1write=3907 l1mshrfull=2226
  core4 retired=536719 windowfull=427969 loadstalls=3189 storestalls=1536 l1read=11966 l1write=3791 l1mshrfull=4725
  core5 retired=601456 windowfull=409539 loadstalls=219 storestalls=257 l1read=6023 l1write=2738 l1mshrfull=476
  core6 retired=492924 windowfull=403012 loadstalls=26942 storestalls=17022 l1read=33903 l1write=21657 l1mshrfull=43964
  core7 retired=403911 windowfull=471123 loadstalls=4302 storestalls=550 l1read=11493 l1write=2319 l1mshrfull=4852
`
