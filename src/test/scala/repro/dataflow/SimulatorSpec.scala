package repro.dataflow

import org.scalatest.funsuite.AnyFunSuite

class SimulatorSpec extends AnyFunSuite {
  import TestDags._

  private def par(d: Dag, p: Int): Map[String, Int] = d.ops.map(_.id -> p).toMap

  test("processing ability is strictly increasing in parallelism") {
    val op = Operator("x", OpType.WindowJoin, selectivity = 0.5)
    (1 until 100).foreach { p =>
      assert(Simulator.processingAbility(op, p + 1, SimMode.Flink) >
        Simulator.processingAbility(op, p, SimMode.Flink))
    }
  }

  test("processing ability is sub-linear for stateful operators") {
    val op = Operator("x", OpType.WindowJoin)
    val pa1  = Simulator.processingAbility(op, 1, SimMode.Flink)
    val pa50 = Simulator.processingAbility(op, 50, SimMode.Flink)
    assert(pa50 < 50 * pa1)
    assert(pa50 > 35 * pa1) // but not wildly so
  }

  test("stateless operators scale almost linearly") {
    val op = Operator("x", OpType.Filter)
    val pa1  = Simulator.processingAbility(op, 1, SimMode.Flink)
    val pa50 = Simulator.processingAbility(op, 50, SimMode.Flink)
    assert(pa50 > 49 * pa1 * 0.95)
  }

  test("sources are never a bottleneck") {
    val d = chain()
    val r = Simulator.run(d, Map("src" -> 1e9), par(d, 1), SimMode.Flink)
    assert(!r.ops("src").overloaded)
  }

  test("cost scale grows with tuple width and window length") {
    val narrow = Operator("a", OpType.Map, tupleWidthIn = 8)
    val wide   = Operator("b", OpType.Map, tupleWidthIn = 8192)
    assert(Simulator.costScale(wide) > Simulator.costScale(narrow))
    val win = Operator("c", OpType.WindowAgg,
      window = Some(WindowSpec("tumbling", "time", 60, 60)), tupleWidthIn = 8)
    assert(Simulator.costScale(win) > Simulator.costScale(narrow))
  }

  test("Timely mode is faster per core than Flink mode") {
    val op = Operator("x", OpType.IncJoin)
    assert(Simulator.perCoreRate(op, SimMode.Timely) ==
      Simulator.perCoreRate(op, SimMode.Flink) * SimConstants.timelySpeedup)
  }

  test("an under-provisioned operator is overloaded and its upstream backpressured") {
    val d = chain()
    // Rate far above what p=1 filter/map can do.
    val r = Simulator.run(d, Map("src" -> 5e6), par(d, 1), SimMode.Flink)
    assert(r.jobBackpressure)
    assert(r.ops("a").overloaded)
    assert(r.ops("src").backpressured)
    assert(!r.ops("sink").overloaded)
  }

  test("a well-provisioned job has no backpressure anywhere") {
    val d = chain()
    val r = Simulator.run(d, Map("src" -> 1e4), par(d, 4), SimMode.Flink)
    assert(!r.jobBackpressure)
    assert(r.metricsInTopoOrder.forall(m => !m.overloaded && !m.backpressured))
  }

  test("backpressure cascades through every upstream operator") {
    val d = chain()
    // Make only the sink-adjacent filter 'b' the bottleneck.
    val p = Map("src" -> 1, "a" -> 100, "b" -> 1, "sink" -> 100)
    val r = Simulator.run(d, Map("src" -> 5e6), p, SimMode.Flink)
    assert(r.ops("b").overloaded)
    assert(r.ops("a").backpressured && r.ops("src").backpressured)
    assert(!r.ops("b").backpressured && !r.ops("sink").backpressured)
  }

  test("an overloaded operator caps its output at its processing ability") {
    val d = chain()
    val r = Simulator.run(d, Map("src" -> 5e6), par(d, 1), SimMode.Flink)
    val a = r.ops("a")
    assert(a.outputRate <= a.processingAbility * d.byId("a").selectivity + 1e-6)
  }

  test("selectivities propagate offered rates downstream") {
    val d = chain(selA = 0.5, selB = 0.5)
    val r = Simulator.run(d, Map("src" -> 1e4), par(d, 50), SimMode.Flink)
    assert(math.abs(r.ops("a").offeredRate - 1e4) < 1e-6)
    assert(math.abs(r.ops("b").offeredRate - 5e3) < 1e-6)
    assert(math.abs(r.ops("sink").offeredRate - 2.5e3) < 1e-6)
  }

  test("join sums both input rates") {
    val d = TestDags.diamond
    val p = par(d, 50)
    val r = Simulator.run(d, Map("s1" -> 1e4, "s2" -> 2e4), p, SimMode.Flink)
    assert(math.abs(r.ops("j").offeredRate - (0.5e4 + 1e4)) < 1e-6)
  }

  test("utilization is offered/PA, capped at 1") {
    val d = chain()
    val r = Simulator.run(d, Map("src" -> 5e6), par(d, 1), SimMode.Flink)
    assert(r.ops("a").utilization == 1.0)
    val r2 = Simulator.run(d, Map("src" -> 100.0), par(d, 10), SimMode.Flink)
    assert(r2.ops("a").utilization < 0.01)
  }

  test("overloaded operators are measured exactly (saturated throughput)") {
    val d = chain()
    val r = Simulator.run(d, Map("src" -> 5e6), par(d, 1), SimMode.Flink)
    val a = r.ops("a")
    assert(a.overloaded)
    assert(math.abs(a.measuredPerInstanceRate - a.processingAbility / a.parallelism) < 1e-9)
  }

  test("unsaturated measurements carry bounded relative error") {
    val d = chain()
    val r = Simulator.run(d, Map("src" -> 1e4), par(d, 10), SimMode.Flink)
    val a = r.ops("a")
    val truePer = a.processingAbility / a.parallelism
    val rel = math.abs(a.measuredPerInstanceRate - truePer) / truePer
    val maxEps = 1.6 * SimConstants.measureEps(OpType.Map) *
      SimConstants.lowRateFactor(a.offeredRate)
    assert(rel <= maxEps + 1e-9)
  }

  test("Timely measurements are biased far low (spinning inflates busy time)") {
    val d = chain()
    val r = Simulator.run(d, Map("src" -> 1e6), par(d, 10), SimMode.Timely)
    val a = r.ops("a")
    val truePer = a.processingAbility / a.parallelism
    assert(a.measuredPerInstanceRate < truePer * SimConstants.timelyBiasHi + 1e-9)
    assert(a.measuredPerInstanceRate > truePer * SimConstants.timelyBiasLo - 1e-9)
  }

  test("measurement bias is deterministic per (op, p, epoch) and re-rolls across epochs") {
    val d = chain()
    val r1 = Simulator.run(d, Map("src" -> 1e4), par(d, 10), SimMode.Flink, 7, noiseEpoch = 1)
    val r2 = Simulator.run(d, Map("src" -> 1e4), par(d, 10), SimMode.Flink, 7, noiseEpoch = 1)
    val r3 = Simulator.run(d, Map("src" -> 1e4), par(d, 10), SimMode.Flink, 7, noiseEpoch = 2)
    assert(r1.ops("a").measuredPerInstanceRate == r2.ops("a").measuredPerInstanceRate)
    assert(r1.ops("a").measuredPerInstanceRate != r3.ops("a").measuredPerInstanceRate)
  }

  test("low-rate factor grows as offered rate shrinks, floor 1") {
    assert(SimConstants.lowRateFactor(1e6) == 1.0)
    assert(SimConstants.lowRateFactor(5e3) > SimConstants.lowRateFactor(50e3))
  }

  test("optimalParallelism is the minimal sufficient parallelism") {
    val op = Operator("x", OpType.WindowJoin, selectivity = 0.5)
    val req = 200e3
    val p = Simulator.optimalParallelism(op, req, SimMode.Flink, 100)
    assert(Simulator.processingAbility(op, p, SimMode.Flink) >= req)
    if (p > 1) assert(Simulator.processingAbility(op, p - 1, SimMode.Flink) < req)
  }

  test("missing source rate is rejected") {
    val d = chain()
    assertThrows[IllegalArgumentException](
      Simulator.run(d, Map.empty, par(d, 1), SimMode.Flink))
  }

  test("parallelism below 1 is rejected") {
    val d = chain()
    assertThrows[IllegalArgumentException](
      Simulator.run(d, Map("src" -> 1e3), par(d, 1) + ("a" -> 0), SimMode.Flink))
  }

  test("epoch latencies: overloaded jobs accumulate backlog") {
    val d = chain()
    val bad  = Simulator.run(d, Map("src" -> 5e6), par(d, 1), SimMode.Flink)
    val good = Simulator.run(d, Map("src" -> 1e4), par(d, 10), SimMode.Flink)
    val latBad  = Simulator.epochLatencies(bad)
    val latGood = Simulator.epochLatencies(good)
    assert(latBad.last > latBad.head) // growing backlog
    assert(latGood.max < latBad.max)
    assert(latGood.forall(_ > 0))
  }

  test("epoch latencies are pinned bit for bit") {
    // Pins the fixed epoch count and jitter seed: epochs 1, 2, 50 and 100
    // of a backpressured and a healthy run.
    val d = chain()
    val cases = Seq(
      ("backpressured", Simulator.run(d, Map("src" -> 5e6), par(d, 1), SimMode.Flink),
        Seq(0x3fd7a1f4e1e47946L, 0x3fdfc8c29fe32969L, 0x401a7f03b3d9e8f2L, 0x4028472be5a36c07L)),
      ("backpressure-free", Simulator.run(d, Map("src" -> 1e4), par(d, 10), SimMode.Flink),
        Seq(0x3fcf82ae134c41c7L, 0x3fcfc8d503eb4c0dL, 0x3fd04e3318fa4643L, 0x3fce777fee32e8b9L)),
    )
    cases.foreach { case (name, run, want) =>
      val lat = Simulator.epochLatencies(run)
      assert(lat.size == 100)
      val got = Seq(0, 1, 49, 99).map(e => java.lang.Double.doubleToRawLongBits(lat(e)))
      assert(got == want, f"$name: got ${got.map(g => f"0x$g%016x")} want ${want.map(w => f"0x$w%016x")}")
    }
  }

  test("run is fully deterministic") {
    val d = TestDags.diamond
    val r1 = Simulator.run(d, Map("s1" -> 1e4, "s2" -> 1e4), par(d, 3), SimMode.Flink)
    val r2 = Simulator.run(d, Map("s1" -> 1e4, "s2" -> 1e4), par(d, 3), SimMode.Flink)
    assert(r1.ops == r2.ops && r1.jobBackpressure == r2.jobBackpressure)
  }

  test("raising any parallelism never creates a new overload (sampled)") {
    val d = chain()
    for (i <- 0 until 60) {
      val pa   = 1 + (DetRandom.unit("pa", i) * 30).toInt
      val pb   = 1 + (DetRandom.unit("pb", i) * 30).toInt
      val rate = 1.0 + DetRandom.unit("rate", i) * 5e6
      val base = Map("src" -> 1, "a" -> pa, "b" -> pb, "sink" -> 100)
      val more = base + ("a" -> (pa + 5))
      val r1 = Simulator.run(d, Map("src" -> rate), base, SimMode.Flink)
      val r2 = Simulator.run(d, Map("src" -> rate), more, SimMode.Flink)
      assert(!(r2.ops("a").overloaded && !r1.ops("a").overloaded))
    }
  }

  test("total parallelism sums the assignment (sampled)") {
    for (p <- 1 to 40) {
      val d = chain()
      val r = Simulator.run(d, Map("src" -> 1e3), par(d, p), SimMode.Flink)
      assert(r.totalParallelism == 4 * p)
    }
  }
}
