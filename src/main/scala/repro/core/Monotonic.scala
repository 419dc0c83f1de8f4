package repro.core

import repro.dataflow.DetRandom

/** One fine-tuning training row: parallelism-agnostic embedding `h`,
  * parallelism degree `p`, and the Algorithm-1 bottleneck label (0/1).
  */
final case class TrainRow(h: Array[Double], p: Int, label: Int)

/** The fine-tuned bottleneck-prediction model M_f of §IV-B: estimates
  * P(bottleneck | h, p). Implementations with `monotonic = true` guarantee
  * the probability is non-increasing in p — the paper's monotonic
  * constraint — which makes the minimum-parallelism search sound.
  */
trait FineTuneModel {
  def fit(rows: IndexedSeq[TrainRow]): Unit
  def bottleneckProb(h: Array[Double], p: Int): Double
  def monotonic: Boolean
  def name: String
}

object FineTuneModel {
  /** Probability below which an operator is declared safe (non-bottleneck)
    * during the parallelism search. Slightly below 0.5: prefer one extra
    * unit of parallelism over a backpressure incident.
    */
  val safeProb = 0.45

  /** Line 8 of Algorithm 2: the minimum parallelism whose predicted label
    * is 0. Binary search — sound when the model is monotonic; for the
    * non-monotonic NN ablation it is the same (now unsound) search, which
    * is exactly how the paper's Fig. 11a failure mode arises.
    */
  def minSafeParallelism(model: FineTuneModel, h: Array[Double], pMax: Int): Int = {
    var lo = 1
    var hi = pMax
    if (model.bottleneckProb(h, pMax) >= safeProb) return pMax
    while (lo < hi) {
      val mid = (lo + hi) / 2
      if (model.bottleneckProb(h, mid) < safeProb) hi = mid else lo = mid + 1
    }
    lo
  }
}

/** Kernelized monotonic classifier — the SVM variant of §IV-B(a).
  *
  * Eq. 4 separates the decision function into a kernelized part over the
  * embedding, `w_e . phi(h)`, and a linear monotone term in parallelism,
  * `w_p * p` with `w_p <= 0`. We realize exactly that structure in its
  * local (kernel-evaluation) form: for a query embedding h, training rows
  * are weighted by an RBF kernel in embedding space (adaptive bandwidth =
  * distance to the k-th neighbor), and the decision in p is a single
  * monotone cut at the weighted-misclassification-minimizing threshold
  * t(h) in log-parallelism — the separating hyperplane restricted to the p
  * axis, with monotonicity (probability non-increasing in p) holding by
  * construction for every h.
  *
  * `fit` sorts the rows by p once (stably) into flat primitive arrays and
  * invalidates the per-embedding threshold cache; a threshold is then one
  * distance pass, a k-slot selection of the bandwidth and one sweep in p,
  * with no per-call sort — the "lightweight prediction layer" property
  * §IV-B asks of M_f.
  */
final class MonotonicSvm(
    embedDim: Int,
    kNeighbors: Int = 16,
) extends FineTuneModel {
  override val name = "SVM"
  override val monotonic = true

  private val sharpness: Double = 60.0 // logistic slope per log10-parallelism unit

  // Training rows in ascending p (stable in input order): embeddings
  // row-major in `hs`, plus per-call scratch for distances and weights.
  private var n = 0
  private var hs: Array[Double] = Array.empty
  private var ps: Array[Int] = Array.empty
  private var labels: Array[Int] = Array.empty
  private var d2: Array[Double] = Array.empty
  private var w: Array[Double] = Array.empty
  private val cache = new java.util.IdentityHashMap[Array[Double], java.lang.Double]()

  override def fit(data: IndexedSeq[TrainRow]): Unit = {
    val sorted = data.toArray.sortBy(_.p)
    n = sorted.length
    hs = new Array[Double](n * embedDim)
    ps = new Array[Int](n)
    labels = new Array[Int](n)
    var i = 0
    while (i < n) {
      val r = sorted(i)
      require(r.h.length == embedDim, s"training embedding has length ${r.h.length}, expected $embedDim")
      var j = 0
      while (j < embedDim) {
        val x = r.h(j)
        require(!x.isNaN, "training embedding contains NaN")
        hs(i * embedDim + j) = x
        j += 1
      }
      ps(i) = r.p
      labels(i) = r.label
      i += 1
    }
    d2 = new Array[Double](n)
    w = new Array[Double](n)
    cache.clear()
  }

  /** The monotone cut t(h) in pNorm (log10 p) units: predicted bottleneck
    * iff pNorm(p) < t(h).
    */
  def threshold(h: Array[Double]): Double = {
    require(h.length == embedDim, s"query embedding has length ${h.length}, expected $embedDim")
    val cached = cache.get(h)
    if (cached != null) return cached.doubleValue()
    val t = computeThreshold(h)
    cache.put(h, t)
    t
  }

  private def computeThreshold(h: Array[Double]): Double = {
    if (n == 0) return -0.5
    var i = 0
    while (i < n) {
      var s = 0.0; val off = i * embedDim; var j = 0
      while (j < embedDim) { val d = h(j) - hs(off + j); s += d * d; j += 1 }
      d2(i) = s
      i += 1
    }
    // Adaptive RBF bandwidth: squared distance to the k-th nearest row.
    val k = math.min(kNeighbors, n - 1)
    val sigma2 = math.max(1e-9, MonotonicSvm.kthSmallest(d2, n, math.max(1, k)))

    // Sweep the cut over sorted log-parallelism values; minimize weighted
    // misclassification. label=1 at p_i wants t > pNorm(p_i); label=0 wants
    // t <= pNorm(p_i).
    var err = 0.0 // t = -inf: every label-1 row is misclassified
    i = 0
    while (i < n) {
      w(i) = math.exp(-d2(i) / (2.0 * sigma2))
      if (labels(i) == 1) err += w(i)
      i += 1
    }
    var bestErr = err
    var bestT = -0.5
    var idx = 0
    while (idx < n) {
      val p = ps(idx)
      // Move the cut just above parallelism p (flip all rows at this p).
      while (idx < n && ps(idx) == p) {
        if (labels(idx) == 1) err -= w(idx) else err += w(idx)
        idx += 1
      }
      if (err < bestErr - 1e-12) {
        bestErr = err
        bestT =
          if (idx >= n) Features.pNorm(p) + 0.15 // beyond all data
          else (Features.pNorm(p) + Features.pNorm(ps(idx))) / 2.0
      }
    }
    bestT
  }

  override def bottleneckProb(h: Array[Double], p: Int): Double = {
    val t = threshold(h)
    1.0 / (1.0 + math.exp(-sharpness * (t - Features.pNorm(p))))
  }
}

object MonotonicSvm {
  /** The k-th smallest of `values(0 until n)` (1 <= k <= n): the value
    * `java.util.Arrays.sort` would put at index k - 1, found by keeping the
    * k smallest in a sorted buffer under the same total order (NaN last).
    */
  private def kthSmallest(values: Array[Double], n: Int, k: Int): Double = {
    val buf = new Array[Double](k)
    var size = 0
    var i = 0
    while (i < n) {
      val x = values(i)
      if (size < k || java.lang.Double.compare(x, buf(k - 1)) < 0) {
        var j = if (size < k) { size += 1; size - 1 } else k - 1
        while (j > 0 && java.lang.Double.compare(buf(j - 1), x) > 0) { buf(j) = buf(j - 1); j -= 1 }
        buf(j) = x
      }
      i += 1
    }
    buf(k - 1)
  }
}

/** Gradient-boosted decision trees with a monotone-decreasing constraint on
  * the parallelism feature (the paper's XGBoost variant, §IV-B(b)).
  *
  * Exact greedy splits on (h..., p) with logistic loss and Newton leaf
  * values; splits on the parallelism feature whose left (low-p) value is
  * below the right value are discarded (gain set to -inf), and value bounds
  * are propagated down both subtrees so the *whole ensemble* — not just
  * single splits — respects monotonicity.
  */
final class MonotonicGbt(
    embedDim: Int,
    rounds: Int = 30,
    depth: Int = 3,
    minChild: Int = 5,
    enforceMonotone: Boolean = true,
) extends FineTuneModel {
  override val name = if (enforceMonotone) "XGBoost" else "GBT-unconstrained"
  override val monotonic: Boolean = enforceMonotone

  private val lr: Double = 0.3
  private val lambda: Double = 1.0

  private val pIdx = embedDim // feature index of parallelism

  private sealed trait Node
  private final case class Leaf(value: Double) extends Node
  private final case class Split(feature: Int, thr: Double, left: Node, right: Node) extends Node

  private var trees: List[Node] = Nil
  private var base = 0.0

  private def featuresOf(r: TrainRow): Array[Double] = r.h :+ Features.pNorm(r.p)

  private def predictRaw(x: Array[Double]): Double = {
    var s = base
    trees.foreach { t =>
      var node = t
      var done = false
      while (!done) node match {
        case Leaf(v) => s += v; done = true
        case Split(f, thr, l, rgt) => node = if (x(f) <= thr) l else rgt
      }
    }
    s
  }

  override def bottleneckProb(h: Array[Double], p: Int): Double = {
    val x = h :+ Features.pNorm(p)
    1.0 / (1.0 + math.exp(-predictRaw(x)))
  }

  override def fit(rows: IndexedSeq[TrainRow]): Unit = {
    if (rows.isEmpty) return
    trees = Nil
    val xs = rows.map(featuresOf).toArray
    val ys = rows.map(_.label.toDouble).toArray
    val posRate = math.min(0.99, math.max(0.01, ys.sum / ys.length))
    base = math.log(posRate / (1 - posRate))
    val raw = Array.fill(ys.length)(base)
    val search = new SplitSearch(xs)
    var round = 0
    while (round < rounds) {
      val g = new Array[Double](ys.length)
      val h = new Array[Double](ys.length)
      var i = 0
      while (i < ys.length) {
        val p = 1.0 / (1.0 + math.exp(-raw(i)))
        g(i) = p - ys(i)
        h(i) = math.max(1e-6, p * (1 - p))
        i += 1
      }
      val tree = buildNode(search, g, h, (0 until ys.length).toArray, depth,
        lo = Double.NegativeInfinity, hi = Double.PositiveInfinity)
      trees = trees :+ tree
      i = 0
      while (i < ys.length) {
        raw(i) += lr * leafValueFor(tree, xs(i))
        i += 1
      }
      round += 1
    }
  }

  private def leafValueFor(t: Node, x: Array[Double]): Double = t match {
    case Leaf(v)              => v
    case Split(f, thr, l, r) => if (x(f) <= thr) leafValueFor(l, x) else leafValueFor(r, x)
  }

  private def leafValue(g: Double, h: Double, lo: Double, hi: Double): Double =
    math.min(hi, math.max(lo, -g / (h + lambda)))

  /** Column blocks for one fit (XGBoost's exact greedy layout, Chen &
    * Guestrin §4.1): feature-major values plus, per feature, the row order
    * sorted by `java.lang.Double.compare`. The feature matrix is fixed
    * during a fit, so columns are sorted once here rather than at every
    * node. The remaining arrays are scratch space for one node's search.
    */
  private final class SplitSearch(xs: Array[Array[Double]]) {
    val nRows: Int = xs.length
    val nFeatures: Int = xs(0).length
    val col: Array[Array[Double]] = Array.tabulate(nFeatures) { f =>
      Array.tabulate(nRows) { i =>
        val x = xs(i)(f)
        require(!x.isNaN, s"MonotonicGbt: feature $f of row $i is NaN")
        x
      }
    }
    val sorted: Array[Array[Int]] =
      col.map(c => Array.range(0, nRows).sortBy(i => c(i))(Ordering.Double.TotalOrdering))

    val inNode = new Array[Boolean](nRows)
    val rank = new Array[Int](nRows)      // row -> index of its value in `values`
    val values = new Array[Double](nRows) // the node's distinct values, ascending
    val bucket = new Array[Int](nRows)    // value index -> first candidate >= it
    val cand = new Array[Double](32)
    val gL = new Array[Double](32)
    val hL = new Array[Double](32)
    val nL = new Array[Int](32)

    /** Fill `cand`/`gL`/`hL`/`nL` for feature f over the node's rows (marked
      * in `inNode`, listed ascending in `idx`); returns the candidate count.
      *
      * Candidates: midpoints of adjacent distinct values when there are at
      * most 33 of them, otherwise 32 quantile values. `gL(k)`/`hL(k)` sum
      * the rows with `x <= cand(k)` in ascending row order, starting from
      * 0.0: every candidate receives the same additions in the same order
      * as a direct scan of `idx`, so its sums are bit-identical. (Prefix
      * sums over sorted order would reassociate them and change splits.)
      */
    def scan(f: Int, idx: Array[Int], g: Array[Double], h: Array[Double]): Int = {
      val c = col(f)
      val order = sorted(f)
      var nd = 0
      var k = 0
      while (k < nRows) {
        val i = order(k)
        if (inNode(i)) {
          val x = c(i)
          if (nd == 0 || values(nd - 1) != x) { // -0.0 and 0.0 are one value
            values(nd) = x; nd += 1
          }
          rank(i) = nd - 1
        }
        k += 1
      }
      if (nd < 2) return 0
      val nc = if (nd <= 33) nd - 1 else 32
      k = 0
      while (k < nc) {
        cand(k) = if (nd <= 33) (values(k) + values(k + 1)) / 2 else values((nd - 1) * (k + 1) / 33)
        gL(k) = 0.0; hL(k) = 0.0; nL(k) = 0
        k += 1
      }
      // Candidates ascend, so x <= cand(k) holds from the value's bucket up.
      var b = 0
      var r = 0
      while (r < nd) {
        while (b < nc && !(values(r) <= cand(b))) b += 1
        bucket(r) = b
        r += 1
      }
      var t = 0
      while (t < idx.length) {
        val i = idx(t)
        val gi = g(i); val hi = h(i)
        k = bucket(rank(i))
        while (k < nc) { gL(k) += gi; hL(k) += hi; nL(k) += 1; k += 1 }
        t += 1
      }
      nc
    }
  }

  private def buildNode(
      s: SplitSearch, g: Array[Double], h: Array[Double],
      idx: Array[Int], d: Int, lo: Double, hi: Double,
  ): Node = {
    val gSum = idx.map(g).sum
    val hSum = idx.map(h).sum
    val selfValue = leafValue(gSum, hSum, lo, hi)
    if (d == 0 || idx.length < 2 * minChild) return Leaf(selfValue)

    var bestGain = 0.0
    var bestF = -1; var bestThr = 0.0
    idx.foreach(i => s.inNode(i) = true)
    var f = 0
    while (f < s.nFeatures) {
      val nc = s.scan(f, idx, g, h)
      var k = 0
      while (k < nc) {
        val gL = s.gL(k); val hL = s.hL(k); val nL = s.nL(k)
        val nR = idx.length - nL
        if (nL >= minChild && nR >= minChild) {
          val gR = gSum - gL; val hR = hSum - hL
          val gain = gL * gL / (hL + lambda) + gR * gR / (hR + lambda) -
            gSum * gSum / (hSum + lambda)
          val monotoneOk =
            !enforceMonotone || f != pIdx || {
              // Decreasing in p: the low-p side must not predict lower.
              leafValue(gL, hL, lo, hi) >= leafValue(gR, hR, lo, hi)
            }
          if (gain > bestGain && monotoneOk) {
            bestGain = gain; bestF = f; bestThr = s.cand(k)
          }
        }
        k += 1
      }
      f += 1
    }
    idx.foreach(i => s.inNode(i) = false)
    if (bestF < 0) return Leaf(selfValue)

    val (li, ri) = idx.partition(i => s.col(bestF)(i) <= bestThr)
    if (enforceMonotone && bestF == pIdx) {
      // Bound propagation: children on the low-p side stay >= mid, high-p
      // side stays <= mid, so monotonicity holds across whole subtrees.
      val wL = leafValue(li.map(g).sum, li.map(h).sum, lo, hi)
      val wR = leafValue(ri.map(g).sum, ri.map(h).sum, lo, hi)
      val mid = (wL + wR) / 2
      Split(bestF, bestThr,
        buildNode(s, g, h, li, d - 1, mid, hi),
        buildNode(s, g, h, ri, d - 1, lo, mid))
    } else {
      Split(bestF, bestThr,
        buildNode(s, g, h, li, d - 1, lo, hi),
        buildNode(s, g, h, ri, d - 1, lo, hi))
    }
  }
}

/** Plain MLP with no monotonic constraint — the NN ablation of Fig. 11a.
  * Deliberately the same capacity class as the other models; its failure
  * mode is structural (non-monotone decision boundary makes the binary
  * search unsound), not capacity.
  */
final class PlainNn(embedDim: Int) extends FineTuneModel {
  override val name = "NN"
  override val monotonic = false

  private val hidden: Int = 16
  private val epochs: Int = 40
  private val lr: Double = 0.05
  private val seed: Long = 29

  private val inDim = embedDim + 1
  private def g(tag: String, i: Int): Double = {
    val u1 = math.max(1e-12, DetRandom.unit(seed, tag, i, "u1"))
    val u2 = DetRandom.unit(seed, tag, i, "u2")
    math.sqrt(-2.0 * math.log(u1)) * math.cos(2 * math.Pi * u2)
  }
  private val w1 = Array.tabulate(hidden * inDim)(i => g("w1", i) * math.sqrt(2.0 / inDim))
  private val b1 = new Array[Double](hidden)
  private val w2 = Array.tabulate(hidden)(i => g("w2", i) * math.sqrt(2.0 / hidden))
  private var b2 = 0.0

  private def forward(x: Array[Double]): (Array[Double], Double) = {
    val a = new Array[Double](hidden)
    var i = 0
    while (i < hidden) {
      var s = b1(i); var j = 0
      while (j < inDim) { s += w1(i * inDim + j) * x(j); j += 1 }
      a(i) = math.max(0.0, s)
      i += 1
    }
    var out = b2
    i = 0
    while (i < hidden) { out += w2(i) * a(i); i += 1 }
    (a, out)
  }

  override def bottleneckProb(h: Array[Double], p: Int): Double = {
    val x = h :+ Features.pNorm(p)
    1.0 / (1.0 + math.exp(-forward(x)._2))
  }

  override def fit(rows: IndexedSeq[TrainRow]): Unit = {
    if (rows.isEmpty) return
    val xs = rows.map(r => r.h :+ Features.pNorm(r.p)).toArray
    val ys = rows.map(_.label.toDouble).toArray
    var e = 0
    while (e < epochs) {
      var r = 0
      while (r < ys.length) {
        val (a, logit) = forward(xs(r))
        val p = 1.0 / (1.0 + math.exp(-logit))
        val dLogit = (p - ys(r)) * lr
        var i = 0
        while (i < hidden) {
          if (a(i) > 0) {
            val da = w2(i) * dLogit
            var j = 0
            while (j < inDim) { w1(i * inDim + j) -= da * xs(r)(j); j += 1 }
            b1(i) -= da
          }
          w2(i) -= dLogit * a(i)
          i += 1
        }
        b2 -= dLogit
        r += 1
      }
      e += 1
    }
  }
}
