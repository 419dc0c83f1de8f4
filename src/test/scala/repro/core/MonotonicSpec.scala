package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.{Gen, Prop, Properties}
import repro.dataflow.DetRandom

object MonotonicFixtures {
  val dim = 6

  def h(seed: Int): Array[Double] =
    Array.tabulate(dim)(j => DetRandom.unit("h", seed, j))

  /** Rows for a clean threshold t(h) = 5 + 40 * h(0). */
  def rows(n: Int, seed: Int = 1): IndexedSeq[TrainRow] =
    (0 until n).map { i =>
      val hv = h(seed * 10000 + i % 25) // 25 distinct embeddings
      val p = 1 + (DetRandom.unit("p", seed, i) * 99).toInt
      val thr = 5 + 40 * hv(0)
      TrainRow(hv, p, if (p < thr) 1 else 0)
    }
}

/** Fixed, deterministic row sets for the bit-exact `MonotonicGbt` pins.
  * Each set steers the split search through a different branch.
  */
object GbtPinFixtures {
  val dim = 3

  private def u(parts: Any*): Double = DetRandom.unit(("gbt-pin" +: parts): _*)

  /** Noisy monotone labels: bottleneck below a threshold set by h(0). */
  private def label(hv: Array[Double], p: Int, i: Int): Int = {
    val thr = 4 + 30 * hv(0)
    val clean = if (p < thr) 1 else 0
    if (u("flip", i) < 0.08) 1 - clean else clean
  }

  /** At most 33 distinct values in every feature: midpoint candidates. */
  val fewDistinct: IndexedSeq[TrainRow] = (0 until 300).map { i =>
    val hv = Array.tabulate(dim)(j => u("few", i % 4, j))
    val p = 1 + (i * 7) % 30
    TrainRow(hv, p, label(hv, p, i))
  }

  /** Every row has its own embedding and p spans 1..99: quantile candidates. */
  val manyDistinct: IndexedSeq[TrainRow] = (0 until 400).map { i =>
    val hv = Array.tabulate(dim)(j => u("many", i, j))
    val p = 1 + (u("many-p", i) * 99).toInt
    TrainRow(hv, p, label(hv, p, i))
  }

  /** More than 33 distinct values, but most rows share a handful of them. */
  val heavyTies: IndexedSeq[TrainRow] = (0 until 500).map { i =>
    val hv = Array.tabulate(dim) { j =>
      if (u("tie-h", i, j) < 0.7) 0.5 else math.floor(u("tie-v", i, j) * 50) / 50
    }
    val p = if (i % 2 == 0) 8 else 1 + (u("tie-p", i) * 80).toInt
    TrainRow(hv, p, label(hv, p, i))
  }

  /** Row counts at and just above `2 * minChild`. */
  def nearMinChild(n: Int): IndexedSeq[TrainRow] = (0 until n).map { i =>
    val hv = Array.tabulate(dim)(j => u("small", i, j))
    val p = 1 + (u("small-p", i) * 60).toInt
    TrainRow(hv, p, label(hv, p, i))
  }

  /** Labels inverted in p, so unconstrained trees split against the constraint. */
  val inverted: IndexedSeq[TrainRow] = (0 until 300).map { i =>
    val hv = Array.tabulate(dim)(j => u("inv", i % 6, j))
    val p = 1 + (u("inv-p", i) * 99).toInt
    val noisy = u("inv-flip", i) < 0.1
    TrainRow(hv, p, if ((p > 50) != noisy) 1 else 0)
  }

  /** Features holding both -0.0 and 0.0, which are one value to the split
    * search; `levels` sets how many other values a feature takes.
    */
  def signedZeros(levels: Int): IndexedSeq[TrainRow] = (0 until 400).map { i =>
    val hv = Array.tabulate(dim) { j =>
      val z = u("zero", levels, i, j)
      if (z < 0.25) -0.0
      else if (z < 0.5) 0.0
      else math.floor(u("zero-v", levels, i, j) * levels) / levels - 0.5
    }
    val p = 1 + (u("zero-p", levels, i) * 60).toInt
    TrainRow(hv, p, label(hv, p, i))
  }

  val gridH: IndexedSeq[Array[Double]] =
    IndexedSeq(Array(0.1, 0.5, 0.9), Array(0.5, 0.5, 0.5), Array(0.8, 0.2, 0.4))
  val gridP: IndexedSeq[Int] = IndexedSeq(1, 3, 8, 20, 55, 100)

  /** Named (model, rows) cases; the spec pins each model's probabilities. */
  def cases: IndexedSeq[(String, () => MonotonicGbt, IndexedSeq[TrainRow])] = IndexedSeq(
    ("few distinct", () => new MonotonicGbt(dim), fewDistinct),
    ("many distinct", () => new MonotonicGbt(dim), manyDistinct),
    ("heavy ties", () => new MonotonicGbt(dim), heavyTies),
    ("n = 2 * minChild", () => new MonotonicGbt(dim), nearMinChild(10)),
    ("n = 3 * minChild, depth 2", () => new MonotonicGbt(dim, minChild = 3, depth = 2), nearMinChild(9)),
    ("unconstrained", () => new MonotonicGbt(dim, enforceMonotone = false), inverted),
    ("signed zeros, few distinct", () => new MonotonicGbt(dim), signedZeros(4)),
    ("signed zeros, many distinct", () => new MonotonicGbt(dim), signedZeros(60)),
  )

  /** `bottleneckProb` over the (h, p) grid, as raw bits. */
  def probBits(m: MonotonicGbt): IndexedSeq[Long] =
    for (hv <- gridH; p <- gridP)
      yield java.lang.Double.doubleToRawLongBits(m.bottleneckProb(hv, p))
}

/** Fixed, deterministic row sets for the bit-exact `MonotonicSvm` pins.
  * Rows are deliberately not given in p order, and several sets put many
  * rows, with mixed labels, at one p, so the stable order in p and the
  * order of every weight addition show in the bits.
  */
object SvmPinFixtures {
  val dim = 3

  private def u(parts: Any*): Double = DetRandom.unit(("svm-pin" +: parts): _*)

  private def randomH(parts: Any*): Array[Double] = Array.tabulate(dim)(j => u((parts :+ j): _*))

  /** Noisy monotone labels: bottleneck below a threshold set by h(0). */
  private def label(hv: Array[Double], p: Int, i: Int): Int = {
    val clean = if (p < 4 + 30 * hv(0)) 1 else 0
    if (u("flip", i) < 0.1) 1 - clean else clean
  }

  private def mixed(tag: String, n: Int, pMax: Int): IndexedSeq[TrainRow] = (0 until n).map { i =>
    val hv = randomH(tag, i)
    val p = 1 + (u(tag, "p", i) * pMax).toInt
    TrainRow(hv, p, label(hv, p, i))
  }

  val single: IndexedSeq[TrainRow] = IndexedSeq(TrainRow(Array(0.3, 0.6, 0.1), 7, 1))

  /** Fewer rows than `kNeighbors`, so the bandwidth is the (n - 1)-th neighbour. */
  val fewRows: IndexedSeq[TrainRow] = mixed("few", 10, 40)

  /** One embedding for every row: querying it gives d2 = 0 everywhere. */
  val duplicates: IndexedSeq[TrainRow] = (0 until 40).map { i =>
    val p = 1 + (u("dup-p", i) * 50).toInt
    TrainRow(Array(0.25, 0.5, 0.75), p, if ((p < 20) != (u("dup-flip", i) < 0.15)) 1 else 0)
  }

  /** Embeddings on a coarse lattice, so many rows tie at the k-th distance. */
  val latticeTies: IndexedSeq[TrainRow] = (0 until 120).map { i =>
    val hv = Array.tabulate(dim)(j => math.floor(u("lat", i, j) * 3) / 2)
    val p = 1 + (u("lat-p", i) * 60).toInt
    TrainRow(hv, p, label(hv, p, i))
  }

  /** Most rows at p = 8 with mixed labels; p descends through the rest. */
  val crowdedP: IndexedSeq[TrainRow] = (0 until 300).map { i =>
    val hv = randomH("crowd", i % 37)
    val p = if (u("crowd-p", i) < 0.6) 8 else 90 - (i % 89)
    TrainRow(hv, p, label(hv, p, i))
  }

  val allZero: IndexedSeq[TrainRow] = mixed("zero", 100, 80).map(_.copy(label = 0))
  val allOne: IndexedSeq[TrainRow]  = mixed("one", 100, 80).map(_.copy(label = 1))

  /** Many rows over few embeddings, p given in descending order. */
  val descending: IndexedSeq[TrainRow] = (0 until 2000).map { i =>
    val hv = randomH("desc", i % 60)
    val p = 100 - i / 20
    TrainRow(hv, p, label(hv, p, i))
  }

  /** Rows whose kernel weight against the query (0.5, 0.5, 0.5) is within
    * 0.2% of the sweep's 1e-12 tie margin, among rows at the query itself
    * (weight 1; at least 16 of them, so sigma2 = 1e-9) and a few of weight
    * 1e-1 to 1e-11. Whether a cut wins then turns on the rounding of the
    * running error, so the order of its additions, including the order of
    * rows that share a p, shows in the threshold.
    */
  def nearMargin(seed: Int): IndexedSeq[TrainRow] = {
    val pMax = 6 + (u("nm-pmax", seed) * 20).toInt
    val weights =
      Seq.fill(18 + (u("nm-n1", seed) * 6).toInt)(1.0) ++
        Seq.tabulate(6 + (u("nm-n2", seed) * 14).toInt)(i => 1e-12 * (1 + (u("nm-w2", seed, i) - 0.5) * 4e-3)) ++
        Seq.tabulate((u("nm-n3", seed) * 6).toInt)(i => math.pow(10, -1 - 10 * u("nm-w3", seed, i)))
    val rows = weights.zipWithIndex.map { case (w, i) =>
      val hv = Array(0.5, 0.5, 0.5)
      hv((u("nm-c", seed, i) * dim).toInt) += math.sqrt(-2e-9 * math.log(w))
      TrainRow(hv, 1 + (u("nm-p", seed, i) * pMax).toInt, if (u("nm-l", seed, i) < 0.5) 1 else 0)
    }
    rows.indices.sortBy(i => u("nm-order", seed, i)).map(rows)
  }

  /** Label-0 rows at the query (0, 0, 0) and rows offset in every
    * coordinate whose weight is within 1e-14 relative of the 1e-12 margin,
    * so the last bit of each squared distance, and with it the order of
    * the per-coordinate additions, shows in the threshold.
    */
  def nearMarginSpread(seed: Int): IndexedSeq[TrainRow] = {
    val pMax = 6 + (u("ms-pmax", seed) * 20).toInt
    val atQuery = Seq.tabulate(18 + (u("ms-n1", seed) * 6).toInt) { i =>
      TrainRow(Array(0.0, 0.0, 0.0), 1 + (u("ms-p1", seed, i) * pMax).toInt, 0)
    }
    val offset = Seq.tabulate(2 + (u("ms-n2", seed) * 6).toInt) { i =>
      val d2 = -2e-9 * math.log(1e-12 * (1 + (u("ms-w", seed, i) - 0.5) * 4e-14))
      val f = Array.tabulate(dim)(j => 0.2 + u("ms-f", seed, i, j))
      TrainRow(f.map(x => math.sqrt(d2 * x / f.sum)), 1 + (u("ms-p2", seed, i) * pMax).toInt,
        if (u("ms-l", seed, i) < 0.7) 1 else 0)
    }
    val rows = atQuery ++ offset
    rows.indices.sortBy(i => u("ms-order", seed, i)).map(rows)
  }

  val freshH: IndexedSeq[Array[Double]] = IndexedSeq(
    Array(0.1, 0.5, 0.9), Array(0.5, 0.5, 0.5), Array(0.8, 0.2, 0.4), Array(3.0, -2.0, 0.0), Array(0.0, 0.0, 0.0))

  /** Named (model, rows) cases; the spec pins each model's thresholds. */
  def cases: IndexedSeq[(String, () => MonotonicSvm, IndexedSeq[TrainRow])] = IndexedSeq(
    ("n = 1", () => new MonotonicSvm(dim), single),
    ("n <= kNeighbors", () => new MonotonicSvm(dim), fewRows),
    ("duplicate embeddings", () => new MonotonicSvm(dim), duplicates),
    ("lattice ties", () => new MonotonicSvm(dim), latticeTies),
    ("lattice ties, k = 5", () => new MonotonicSvm(dim, kNeighbors = 5), latticeTies),
    ("crowded p", () => new MonotonicSvm(dim), crowdedP),
    ("all labels 0", () => new MonotonicSvm(dim), allZero),
    ("all labels 1", () => new MonotonicSvm(dim), allOne),
    ("descending p", () => new MonotonicSvm(dim), descending),
    ("near margin, seed 1389", () => new MonotonicSvm(dim), nearMargin(1389)),
    ("near margin, seed 2048", () => new MonotonicSvm(dim), nearMargin(2048)),
    ("near margin spread, seed 1573", () => new MonotonicSvm(dim), nearMarginSpread(1573)),
    ("near margin spread, seed 2094", () => new MonotonicSvm(dim), nearMarginSpread(2094)),
  )

  /** Fresh embeddings, then copies of training embeddings (equal content,
    * new arrays), so every query misses the identity-keyed cache.
    */
  def queries(data: IndexedSeq[TrainRow]): IndexedSeq[Array[Double]] =
    freshH ++ Seq(0, data.size / 2, data.size - 1).map(i => data(i).h.clone())

  /** `threshold` at every query, as raw bits. */
  def thresholdBits(m: MonotonicSvm, data: IndexedSeq[TrainRow]): IndexedSeq[Long] =
    queries(data).map(hv => java.lang.Double.doubleToRawLongBits(m.threshold(hv)))
}

class MonotonicSpec extends AnyFunSuite {
  import MonotonicFixtures._

  private def fitted(model: FineTuneModel): FineTuneModel = {
    model.fit(rows(4000))
    model
  }

  test("SVM recovers thresholds within a small margin") {
    val m = fitted(new MonotonicSvm(dim))
    // Query the trained anchor embeddings (seed 1 -> h(10000 + i)).
    (0 until 20).foreach { s =>
      val hv = h(10000 + s)
      val trueThr = 5 + 40 * hv(0)
      val got = FineTuneModel.minSafeParallelism(m, hv, 100)
      assert(math.abs(got - trueThr) <= math.max(3.0, trueThr * 0.35),
        s"svm=$got true=$trueThr")
    }
  }

  test("XGBoost recovers thresholds within a small margin") {
    val m = fitted(new MonotonicGbt(dim))
    (0 until 10).foreach { s =>
      val hv = h(10000 + s)
      val trueThr = 5 + 40 * hv(0)
      val got = FineTuneModel.minSafeParallelism(m, hv, 100)
      assert(math.abs(got - trueThr) <= math.max(5.0, trueThr * 0.5),
        s"gbt=$got true=$trueThr")
    }
  }

  test("SVM probability is non-increasing in parallelism everywhere") {
    val m = fitted(new MonotonicSvm(dim))
    (0 until 30).foreach { s =>
      val hv = h(s)
      (1 until 100).foreach { p =>
        assert(m.bottleneckProb(hv, p + 1) <= m.bottleneckProb(hv, p) + 1e-12)
      }
    }
  }

  test("XGBoost probability is non-increasing in parallelism everywhere") {
    val m = fitted(new MonotonicGbt(dim))
    (0 until 30).foreach { s =>
      val hv = h(s)
      (1 until 100).foreach { p =>
        assert(m.bottleneckProb(hv, p + 1) <= m.bottleneckProb(hv, p) + 1e-9,
          s"violation at seed=$s p=$p")
      }
    }
  }

  test("XGBoost probabilities are pinned bit for bit on fixed row sets") {
    // Recorded from the reference split search (per-node sort, one scan per
    // candidate); every split, leaf value and probability must reproduce.
    val pinned: Map[String, Seq[Long]] = Map(
      "few distinct" -> Seq(
        0x3feffffd0bef33deL, 0x3feffa53fd2ddb9bL, 0x3f82ec41c6fbbbf3L,
        0x3f2aec9a40d15cdfL, 0x3ea67ae5cbf62230L, 0x3ea67ae5cbf62230L,
        0x3feffffdbe81f958L, 0x3fefffc47582d349L, 0x3feffe6b18c06594L,
        0x3fb7695c1fb7022eL, 0x3ebc6039d3a549b5L, 0x3ebc6039d3a549b5L,
        0x3feffffdd3f50268L, 0x3fefffd66f15bc6bL, 0x3fefff38d207f601L,
        0x3fede7b11c4fbda8L, 0x3f0d3a18104824feL, 0x3f0d3a18104824feL,
      ),
      "many distinct" -> Seq(
        0x3feffdd38a294361L, 0x3feffdd38a294361L, 0x3feffdd38a294361L,
        0x3fb8bb631b6aabfbL, 0x3f263a767cf6e620L, 0x3ed99a55bfd3e782L,
        0x3fefffff0f83e447L, 0x3fefffff0f83e447L, 0x3fefffff0f83e447L,
        0x3fef28d7fb23e9c9L, 0x3f9c934fec366db9L, 0x3f717e5909f8adf3L,
        0x3fefffff3eb8287fL, 0x3fefffff3eb8287fL, 0x3fefffff3eb8287fL,
        0x3feec9535def3e6dL, 0x3f5d8e0478646363L, 0x3f31b0d561f3eb91L,
      ),
      "heavy ties" -> Seq(
        0x3fe02d1c3317865aL, 0x3fe02d1c3317865aL, 0x3f79c7090cd6a649L,
        0x3eb7b45df97af973L, 0x3e7e07f7cead4c4aL, 0x3e7e07f7cead4c4aL,
        0x3fefffec737bfaffL, 0x3fefffec737bfaffL, 0x3feffda08f4c0ebbL,
        0x3fb98dc7fc814cb1L, 0x3f47ab850ecb053dL, 0x3f47ab850ecb053dL,
        0x3fefffff9a12f0afL, 0x3fefffff9a12f0afL, 0x3feffff9709649e1L,
        0x3fdc580abf76e79aL, 0x3f2beacf0d0b1322L, 0x3f14ca55a6ecf4dfL,
      ),
      "n = 2 * minChild" -> Seq(
        0x3ee7de418f2d754dL, 0x3ee7de418f2d754dL, 0x3ee7de418f2d754dL,
        0x3ee7de418f2d754dL, 0x3ee7de418f2d754dL, 0x3ee7de418f2d754dL,
        0x3ee7de418f2d754dL, 0x3ee7de418f2d754dL, 0x3ee7de418f2d754dL,
        0x3ee7de418f2d754dL, 0x3ee7de418f2d754dL, 0x3ee7de418f2d754dL,
        0x3fefffe821be70d3L, 0x3fefffe821be70d3L, 0x3fefffe821be70d3L,
        0x3fefffe821be70d3L, 0x3fefffe821be70d3L, 0x3fefffe821be70d3L,
      ),
      "n = 3 * minChild, depth 2" -> Seq(
        0x3eeeaafb6c4fffe0L, 0x3eeeaafb6c4fffe0L, 0x3eeeaafb6c4fffe0L,
        0x3eeeaafb6c4fffe0L, 0x3eeeaafb6c4fffe0L, 0x3eeeaafb6c4fffe0L,
        0x3fefffdb495a2b12L, 0x3fefffdb495a2b12L, 0x3fefffdb495a2b12L,
        0x3fefffdb495a2b12L, 0x3fefffdb495a2b12L, 0x3fefffdb495a2b12L,
        0x3fefffdb495a2b12L, 0x3fefffdb495a2b12L, 0x3fefffdb495a2b12L,
        0x3fefffdb495a2b12L, 0x3fefffdb495a2b12L, 0x3fefffdb495a2b12L,
      ),
      "unconstrained" -> Seq(
        0x3f8e78b57e316a32L, 0x3f8e78b57e316a32L, 0x3fe75098228c64bcL,
        0x3f11ae4bffcafdd0L, 0x3fee4a8db5cd8a23L, 0x3feffffea21655feL,
        0x3f798b7f938b8738L, 0x3f798b7f938b8738L, 0x3fe0df7e04c8ebe6L,
        0x3f11ae4bffcafdd0L, 0x3feffe7173ddfe75L, 0x3feffffe78cd7454L,
        0x3f7376d4c4ca538dL, 0x3f7376d4c4ca538dL, 0x3fdd61458ffcd849L,
        0x3ef2cc86ca74a246L, 0x3fefff91258bb043L, 0x3fefffffd8aa1158L,
      ),
      "signed zeros, few distinct" -> Seq(
        0x3fefff7edf14f85cL, 0x3fefa9a94f3d9a19L, 0x3fc332474dd11243L,
        0x3ed1aaa80139069aL, 0x3ed1aaa80139069aL, 0x3ed1aaa80139069aL,
        0x3fefffff70e81c7aL, 0x3fefffe34f88768bL, 0x3feffb3c8b725970L,
        0x3f06dbc0ea84e9ddL, 0x3f06dbc0ea84e9ddL, 0x3f06dbc0ea84e9ddL,
        0x3fefffff70e81c7aL, 0x3fefffe34f88768bL, 0x3feffb3c8b725970L,
        0x3f06dbc0ea84e9ddL, 0x3f06dbc0ea84e9ddL, 0x3f06dbc0ea84e9ddL,
      ),
      "signed zeros, many distinct" -> Seq(
        0x3fefff5d4753936bL, 0x3fefff5d4753936bL, 0x3fe62e59384178beL,
        0x3f92719cae372940L, 0x3f54b385beb30378L, 0x3f23cf2ff1c0ce15L,
        0x3fefffffca55a9fcL, 0x3fefffffca55a9fcL, 0x3feffff11eafc614L,
        0x3fa9209371edd380L, 0x3f6d63bf746fa7a2L, 0x3f3c2e5c191ca5eeL,
        0x3fefff8cc52bac56L, 0x3fefff8cc52bac56L, 0x3fefe02bf396119bL,
        0x3f5c16b1f143119eL, 0x3f1f6753e24b2d51L, 0x3eee05327e8256e9L,
      ),
    )
    GbtPinFixtures.cases.foreach { case (name, mk, data) =>
      val m = mk()
      m.fit(data)
      val got = GbtPinFixtures.probBits(m)
      val want = pinned(name)
      got.zip(want).zipWithIndex.foreach { case ((g, w), k) =>
        assert(g == w, f"$name grid point $k: got 0x$g%016x want 0x$w%016x")
      }
      assert(got.size == want.size)
    }
  }

  test("SVM thresholds are pinned bit for bit on fixed row sets") {
    // Recorded from the reference threshold computation (full sort for the
    // k-th neighbour, boxed per-call sort by p); every threshold must reproduce.
    val pinned: Map[String, Seq[Long]] = Map(
      "n = 1" -> Seq(
        0x3fefd7d7d845990cL, 0x3fefd7d7d845990cL, 0x3fefd7d7d845990cL, 0x3fefd7d7d845990cL,
        0x3fefd7d7d845990cL, 0x3fefd7d7d845990cL, 0x3fefd7d7d845990cL, 0x3fefd7d7d845990cL,
      ),
      "n <= kNeighbors" -> Seq(
        0x3ff064cc6b2df00fL, 0x3ff064cc6b2df00fL, 0x3ff46bdd504dec9bL, 0x3ff46bdd504dec9bL,
        0x3ff064cc6b2df00fL, 0x3ff064cc6b2df00fL, 0x3ff064cc6b2df00fL, 0x3ff064cc6b2df00fL,
      ),
      "duplicate embeddings" -> Seq(
        0x3ff6c2c2c2de3310L, 0x3ff6c2c2c2de3310L, 0x3ff6c2c2c2de3310L, 0x3ff6c2c2c2de3310L,
        0x3ff6c2c2c2de3310L, 0x3ff6c2c2c2de3310L, 0x3ff6c2c2c2de3310L, 0x3ff6c2c2c2de3310L,
      ),
      "lattice ties" -> Seq(
        0x3ff0f6ef771a3bf7L, 0x3ff5512fcfe47fc6L, 0x3ff6e5a522f809f7L, 0x3ff5512fcfe47fc6L,
        0x3febf8940234019eL, 0x3febf8940234019eL, 0x3ff0f6ef771a3bf7L, 0x3ff3e2c1ea4da38aL,
      ),
      "lattice ties, k = 5" -> Seq(
        0x3fd8e69d7377a7feL, 0x3ff5512fcfe47fc6L, 0x3ff7bf73fcf62eb2L, 0x3ff5512fcfe47fc6L,
        0x3febf8940234019eL, 0x3febf8940234019eL, 0xbfe0000000000000L, 0x3ff3e2c1ea4da38aL,
      ),
      "crowded p" -> Seq(
        0x3febf8940234019eL, 0x3ff49eb40550128eL, 0x3ff7266c9113a234L, 0x3ff680d8b7ca19e8L,
        0x3ff3e2c1ea4da38aL, 0x3ff49eb40550128eL, 0x3ff49eb40550128eL, 0x3ff3e2c1ea4da38aL,
      ),
      "all labels 0" -> Seq(
        0xbfe0000000000000L, 0xbfe0000000000000L, 0xbfe0000000000000L, 0xbfe0000000000000L,
        0xbfe0000000000000L, 0xbfe0000000000000L, 0xbfe0000000000000L, 0xbfe0000000000000L,
      ),
      "all labels 1" -> Seq(
        0x40006cba716f00f3L, 0x40006cba716f00f3L, 0x40006cba716f00f3L, 0x40006cba716f00f3L,
        0x40006cba716f00f3L, 0x40006cba716f00f3L, 0x40006cba716f00f3L, 0x40006cba716f00f3L,
      ),
      "descending p" -> Seq(
        0x3fef4493cb27eafeL, 0x3ff4a3659511cfc8L, 0x3ff746c54fbbc384L, 0x3ff4a3659511cfc8L,
        0x3febf8940234019eL, 0x3ff214a04ed02b77L, 0x3ff78422ab7facb4L, 0x3febf8940234019eL,
      ),
      "near margin, seed 1389" -> Seq(
        0x3fc34413509f79ffL, 0xbfe0000000000000L, 0x3fc34413509f79ffL, 0x3fc34413509f79ffL,
        0x3fc34413509f79ffL, 0xbfe0000000000000L, 0xbfe0000000000000L, 0xbfe0000000000000L,
      ),
      "near margin, seed 2048" -> Seq(
        0x3ff054c5b02862b8L, 0x3ff054c5b02862b8L, 0x3ff054c5b02862b8L, 0x3ff054c5b02862b8L,
        0x3ff054c5b02862b8L, 0x3ff054c5b02862b8L, 0x3ff054c5b02862b8L, 0x3ff054c5b02862b8L,
      ),
      "near margin spread, seed 1573" -> Seq(
        0x3fc34413509f79ffL, 0x3fc34413509f79ffL, 0x3fc34413509f79ffL, 0x3fc34413509f79ffL,
        0x3fc34413509f79ffL, 0x3fc34413509f79ffL, 0x3fc34413509f79ffL, 0x3fc34413509f79ffL,
      ),
      "near margin spread, seed 2094" -> Seq(
        0x3fc34413509f79ffL, 0x3fc34413509f79ffL, 0x3fc34413509f79ffL, 0x3fc34413509f79ffL,
        0xbfe0000000000000L, 0xbfe0000000000000L, 0x3fc34413509f79ffL, 0x3fc34413509f79ffL,
      ),
    )
    SvmPinFixtures.cases.foreach { case (name, mk, data) =>
      val m = mk()
      m.fit(data)
      val got = SvmPinFixtures.thresholdBits(m, data)
      val want = pinned(name)
      got.zip(want).zipWithIndex.foreach { case ((g, w), k) =>
        assert(g == w, f"$name query $k: got 0x$g%016x want 0x$w%016x")
      }
      assert(got.size == want.size)
    }
  }

  test("SVM fit rejects rows whose embedding has the wrong length") {
    val m = new MonotonicSvm(dim)
    val short = TrainRow(h(1).take(dim - 1), 4, 1)
    assertThrows[IllegalArgumentException](m.fit(rows(20) :+ short))
    val long = TrainRow(h(1) :+ 0.5, 4, 1)
    assertThrows[IllegalArgumentException](m.fit(rows(20) :+ long))
  }

  test("SVM fit rejects NaN embeddings") {
    val m = new MonotonicSvm(dim)
    val bad = TrainRow(h(1).updated(2, Double.NaN), 4, 1)
    assertThrows[IllegalArgumentException](m.fit(rows(20) :+ bad))
  }

  test("SVM threshold rejects queries whose embedding has the wrong length") {
    val m = new MonotonicSvm(dim)
    m.fit(rows(20))
    assertThrows[IllegalArgumentException](m.threshold(h(1).take(dim - 1)))
    assertThrows[IllegalArgumentException](m.threshold(h(1) :+ 0.5))
    assertThrows[IllegalArgumentException](m.bottleneckProb(h(1) :+ 0.5, 4))
  }

  test("unconstrained GBT on conflicting data CAN violate monotonicity") {
    // Adversarial labels: bottleneck at high p only — impossible under the
    // constraint, representable without it.
    val bad = (0 until 400).map { i =>
      val hv = h(3)
      val p = 1 + (DetRandom.unit("bp", i) * 99).toInt
      TrainRow(hv, p, if (p > 50) 1 else 0)
    }
    val free = new MonotonicGbt(dim, enforceMonotone = false)
    free.fit(bad)
    val hv = h(3)
    val violates = (1 until 100).exists(p => free.bottleneckProb(hv, p + 1) > free.bottleneckProb(hv, p) + 1e-9)
    assert(violates, "unconstrained trees should follow the inverted labels")
    // The constrained version refuses to invert.
    val mono = new MonotonicGbt(dim)
    mono.fit(bad)
    (1 until 100).foreach { p =>
      assert(mono.bottleneckProb(hv, p + 1) <= mono.bottleneckProb(hv, p) + 1e-9)
    }
  }

  test("binary search returns the first safe parallelism under monotonicity") {
    val m = fitted(new MonotonicSvm(dim))
    (0 until 15).foreach { s =>
      val hv = h(s)
      val got = FineTuneModel.minSafeParallelism(m, hv, 100)
      // Exhaustive scan agrees with the binary search.
      val scan = (1 to 100).find(p => m.bottleneckProb(hv, p) < FineTuneModel.safeProb).getOrElse(100)
      assert(got == scan)
    }
  }

  test("minSafeParallelism returns pMax when nothing is safe") {
    val m = new MonotonicSvm(dim)
    m.fit((0 until 100).map(i => TrainRow(h(1), 1 + i % 100, 1))) // all bottleneck
    assert(FineTuneModel.minSafeParallelism(m, h(1), 100) == 100)
  }

  test("empty fit predicts safe everywhere (threshold below 1)") {
    val m = new MonotonicSvm(dim)
    m.fit(IndexedSeq.empty)
    assert(FineTuneModel.minSafeParallelism(m, h(2), 100) == 1)
  }

  test("SVM threshold cache is invalidated by refits") {
    val m = new MonotonicSvm(dim)
    val hv = h(4)
    m.fit((0 until 50).map(i => TrainRow(hv, 1 + i % 100, 0)))
    val before = m.threshold(hv)
    m.fit((0 until 50).map(i => TrainRow(hv, 1 + i % 100, 1)))
    assert(m.threshold(hv) != before)
  }

  test("NN fits the same synthetic task to reasonable accuracy") {
    val m = new PlainNn(dim)
    m.fit(rows(1500))
    var correct = 0
    val test = rows(300, seed = 2)
    test.foreach { r =>
      val pred = if (m.bottleneckProb(r.h, r.p) > 0.5) 1 else 0
      if (pred == r.label) correct += 1
    }
    assert(correct.toDouble / test.size > 0.7, s"NN accuracy ${correct.toDouble / test.size}")
  }

  test("NN exposes monotonic = false, monotone models expose true") {
    assert(!new PlainNn(dim).monotonic)
    assert(new MonotonicSvm(dim).monotonic)
    assert(new MonotonicGbt(dim).monotonic)
  }
}

/** ScalaCheck property suite: monotonicity of M_f under arbitrary inputs. */
object MonotonicProps extends Properties("MonotonicModels") {
  import MonotonicFixtures._

  private val svm = new MonotonicSvm(dim)
  svm.fit(rows(800))
  private val gbt = new MonotonicGbt(dim, rounds = 10)
  gbt.fit(rows(800))

  private val genH = Gen.choose(0, 10000).map(h)
  private val genP = Gen.choose(1, 99)

  property("svm non-increasing in p") = Prop.forAll(genH, genP) { (hv, p) =>
    svm.bottleneckProb(hv, p + 1) <= svm.bottleneckProb(hv, p) + 1e-12
  }

  property("gbt non-increasing in p") = Prop.forAll(genH, genP) { (hv, p) =>
    gbt.bottleneckProb(hv, p + 1) <= gbt.bottleneckProb(hv, p) + 1e-9
  }

  property("probabilities are valid") = Prop.forAll(genH, genP) { (hv, p) =>
    val a = svm.bottleneckProb(hv, p)
    val b = gbt.bottleneckProb(hv, p)
    a >= 0.0 && a <= 1.0 && b >= 0.0 && b <= 1.0
  }
}
