package repro.core

import repro.dataflow.DetRandom

/** Training objectives for the GNN encoder (§IV-A):
  *
  * - [[Gnn.BottleneckClassification]] — StreamTune: per-operator binary
  *   bottleneck indicators (classification, BCE loss).
  * - [[Gnn.JobCostRegression]] — ZeroTune baseline: operator embeddings are
  *   mean-pooled into a summary vector and regressed onto a job-level cost
  *   (the aggregation the paper argues loses operator-level detail).
  */
object Gnn {
  sealed trait Objective
  case object BottleneckClassification extends Objective
  case object JobCostRegression        extends Objective
}

/** One dataflow DAG instance prepared for the GNN: node features, adjacency,
  * per-node normalized parallelism, Algorithm-1 labels (-1 = unlabeled) and
  * a job-level cost (for the regression objective).
  */
final case class GraphSample(
    x: Array[Array[Double]],
    upstream: Array[Array[Int]],
    downstream: Array[Array[Int]],
    pNorm: Array[Double],
    labels: Array[Int],
    jobCost: Double,
) {
  def n: Int = x.length
}

/** A dense parameter matrix with its gradient buffer. The Adam moments
  * are optimizer state: `GnnEncoder.train` owns them for the length of one
  * call, so a trained encoder keeps only weights and gradients.
  */
private[core] final class Param(val rows: Int, val cols: Int, tag: String, seed: Long) {
  private val scale = math.sqrt(2.0 / math.max(1, cols))
  val w: Array[Double] = Array.tabulate(rows * cols) { i =>
    // Deterministic gaussian init via Box-Muller on the substrate hash.
    val u1 = math.max(1e-12, DetRandom.unit(seed, tag, i, "u1"))
    val u2 = DetRandom.unit(seed, tag, i, "u2")
    math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.Pi * u2) * scale
  }
  val g: Array[Double] = new Array(rows * cols)

  @inline def idx(i: Int, j: Int): Int = i * cols + j

  /** y = W x (+ accumulate into y). */
  def matvec(x: Array[Double], y: Array[Double]): Unit = {
    var i = 0
    while (i < rows) {
      var s = 0.0; var j = 0; val off = i * cols
      while (j < cols) { s += w(off + j) * x(j); j += 1 }
      y(i) += s
      i += 1
    }
  }

  /** y = W^T d (+ accumulate into y), y has length cols. */
  def matTvec(d: Array[Double], y: Array[Double]): Unit = {
    var i = 0
    while (i < rows) {
      val di = d(i); val off = i * cols
      if (di != 0.0) {
        var j = 0
        while (j < cols) { y(j) += w(off + j) * di; j += 1 }
      }
      i += 1
    }
  }

  /** g += d (outer) x. */
  def addOuter(d: Array[Double], x: Array[Double]): Unit = {
    var i = 0
    while (i < rows) {
      val di = d(i); val off = i * cols
      if (di != 0.0) {
        var j = 0
        while (j < cols) { g(off + j) += di * x(j); j += 1 }
      }
      i += 1
    }
  }

  def addBiasGrad(d: Array[Double]): Unit = {
    var i = 0
    while (i < rows) { g(i) += d(i); i += 1 }
  }

  /** One Adam update from `g` with first/second moments `m`/`v`; clears `g`. */
  def adamStep(lr: Double, t: Int, m: Array[Double], v: Array[Double]): Unit = {
    val b1 = 0.9; val b2 = 0.999; val eps = 1e-8
    val c1 = 1.0 - math.pow(b1, t); val c2 = 1.0 - math.pow(b2, t)
    var i = 0
    while (i < w.length) {
      m(i) = b1 * m(i) + (1 - b1) * g(i)
      v(i) = b2 * v(i) + (1 - b2) * g(i) * g(i)
      w(i) -= lr * (m(i) / c1) / (math.sqrt(v(i) / c2) + eps)
      g(i) = 0.0
      i += 1
    }
  }
}

/** Message-passing GNN encoder over dataflow DAGs (§IV-A).
  *
  * Architecture: input projection, `layers` direction-aware message-passing
  * rounds (separate weights for upstream and downstream aggregation — data
  * flows one way, so the two neighborhoods carry different signals), a FUSE
  * layer injecting normalized parallelism *after* all other features are
  * encoded (Eq. 3 and the paper's parallelism-handling strategy), and a
  * two-layer MLP head with a sigmoid (classification) or linear output over
  * a mean-pooled readout (regression).
  *
  * `embed` returns the *parallelism-agnostic* operator embeddings used by
  * the fine-tuned monotonic model M_f in the online phase.
  */
final class GnnEncoder(
    val inputDim: Int,
    val hidden: Int = 16,
    val layers: Int = 4,
    val objective: Gnn.Objective = Gnn.BottleneckClassification,
    seed: Long = 42,
) {
  private val headHidden: Int = 8
  private val w0 = new Param(hidden, inputDim, "w0", seed)
  private val b0 = new Param(hidden, 1, "b0", seed)
  private val ws = Array.tabulate(layers)(t => new Param(hidden, hidden, s"ws$t", seed))
  private val wu = Array.tabulate(layers)(t => new Param(hidden, hidden, s"wu$t", seed))
  private val wd = Array.tabulate(layers)(t => new Param(hidden, hidden, s"wd$t", seed))
  private val bl = Array.tabulate(layers)(t => new Param(hidden, 1, s"bl$t", seed))
  private val wf = new Param(hidden, hidden + 1, "wf", seed)
  private val bf = new Param(hidden, 1, "bf", seed)
  private val w1 = new Param(headHidden, hidden, "w1", seed)
  private val b1 = new Param(headHidden, 1, "b1", seed)
  private val w2 = new Param(1, headHidden, "w2", seed)
  private val b2 = new Param(1, 1, "b2", seed)

  private def allParams: Seq[Param] =
    Seq(w0, b0) ++ ws ++ wu ++ wd ++ bl ++ Seq(wf, bf, w1, b1, w2, b2)

  private def relu(x: Array[Double]): Unit = {
    var i = 0
    while (i < x.length) { if (x(i) < 0) x(i) = 0.0; i += 1 }
  }

  private def meanOf(h: Array[Array[Double]], idxs: Array[Int]): Array[Double] = {
    val out = new Array[Double](hidden)
    if (idxs.isEmpty) return out
    var k = 0
    while (k < idxs.length) {
      val row = h(idxs(k)); var j = 0
      while (j < hidden) { out(j) += row(j); j += 1 }
      k += 1
    }
    var j = 0
    while (j < hidden) { out(j) /= idxs.length; j += 1 }
    out
  }

  /** Forward through the message-passing trunk; returns all layer
    * activations, hs(0) .. hs(layers), each n x hidden (post-ReLU).
    */
  private def trunk(s: GraphSample): Array[Array[Array[Double]]] = {
    val n  = s.n
    val hs = Array.ofDim[Array[Array[Double]]](layers + 1)
    hs(0) = Array.tabulate(n) { v =>
      val h = new Array[Double](hidden)
      w0.matvec(s.x(v), h)
      var j = 0
      while (j < hidden) { h(j) += b0.w(j); j += 1 }
      relu(h); h
    }
    var t = 0
    while (t < layers) {
      val prev = hs(t)
      hs(t + 1) = Array.tabulate(n) { v =>
        val h = new Array[Double](hidden)
        ws(t).matvec(prev(v), h)
        wu(t).matvec(meanOf(prev, s.upstream(v)), h)
        wd(t).matvec(meanOf(prev, s.downstream(v)), h)
        var j = 0
        while (j < hidden) { h(j) += bl(t).w(j); j += 1 }
        relu(h); h
      }
      t += 1
    }
    hs
  }

  /** Parallelism-agnostic operator embeddings h_v (n x hidden). */
  def embed(s: GraphSample): Array[Array[Double]] = trunk(s)(layers)

  /** FUSE(h_v || p_v): parallelism-aware embedding, same dimensionality. */
  private def fuse(h: Array[Double], p: Double): Array[Double] = {
    val in = new Array[Double](hidden + 1)
    System.arraycopy(h, 0, in, 0, hidden)
    in(hidden) = p
    val z = new Array[Double](hidden)
    wf.matvec(in, z)
    var j = 0
    while (j < hidden) { z(j) += bf.w(j); j += 1 }
    relu(z); z
  }

  private def headLogit(z: Array[Double]): (Array[Double], Double) = {
    val a = new Array[Double](headHidden)
    w1.matvec(z, a)
    var j = 0
    while (j < headHidden) { a(j) += b1.w(j); j += 1 }
    relu(a)
    var logit = b2.w(0)
    var k = 0
    while (k < headHidden) { logit += w2.w(k) * a(k); k += 1 }
    (a, logit)
  }

  private def sigmoid(x: Double): Double = 1.0 / (1.0 + math.exp(-x))

  /** Per-node bottleneck probabilities at the sample's parallelisms. */
  def predictProbs(s: GraphSample): Array[Double] = {
    val h = embed(s)
    Array.tabulate(s.n)(v => sigmoid(headLogit(fuse(h(v), s.pNorm(v)))._2))
  }

  /** Job-level cost prediction (regression objective, ZeroTune-style). */
  def predictJobCost(s: GraphSample): Double =
    jobCostFromEmbedding(embed(s), s.pNorm)

  /** Same, from a precomputed trunk embedding — lets a tuner score many
    * candidate parallelism vectors without re-running message passing.
    */
  def jobCostFromEmbedding(emb: Array[Array[Double]], pNorm: Array[Double]): Double = {
    val n = emb.length
    val r = new Array[Double](hidden)
    var v = 0
    while (v < n) {
      val z = fuse(emb(v), pNorm(v)); var j = 0
      while (j < hidden) { r(j) += z(j) / n; j += 1 }
      v += 1
    }
    headLogit(r)._2
  }

  /** Weight applied to positive (bottleneck) labels in the BCE loss —
    * Algorithm 1 labels at most the backpressure frontier per run, so
    * positives are the minority class. Set by `train` from the data.
    */
  private var posWeight = 1.0

  /** Adam learning rate (decayed per step) and minibatch size of `train`. */
  private val lr: Double = 3e-3
  private val batchSize: Int = 16

  /** Minibatch training with deterministic shuffling. Returns the mean loss
    * at each epoch. Minibatching matters here: the threshold structure is
    * learned from sparse binary labels, and the optimizer needs many more
    * steps than full-batch epochs would give it.
    */
  def train(samples: IndexedSeq[GraphSample], epochs: Int): Vector[Double] = {
    val losses = Vector.newBuilder[Double]
    val totalPos     = samples.map(_.labels.count(_ == 1)).sum
    val totalLabeled = math.max(1, samples.map(_.labels.count(_ >= 0)).sum)
    posWeight =
      if (totalPos == 0) 1.0
      else math.min(10.0, math.max(1.0, (totalLabeled - totalPos).toDouble / totalPos))
    val params = allParams.toArray
    val ms = params.map(p => new Array[Double](p.w.length))
    val vs = params.map(p => new Array[Double](p.w.length))
    var step = 0
    var epoch = 0
    val idx = samples.indices.toArray
    while (epoch < epochs) {
      // Deterministic Fisher-Yates shuffle per epoch.
      var i = idx.length - 1
      while (i > 0) {
        val j = (DetRandom.unit(epoch, i, "shuffle") * (i + 1)).toInt
        val t = idx(i); idx(i) = idx(j); idx(j) = t
        i -= 1
      }
      var loss = 0.0
      var off = 0
      while (off < idx.length) {
        val batch = idx.slice(off, math.min(idx.length, off + batchSize)).map(samples)
        val batchLabeled = math.max(1, batch.map(_.labels.count(_ >= 0)).sum)
        batch.foreach { s => loss += backward(s, batchLabeled, batch.length) }
        step += 1
        val lrT = lr / (1.0 + 0.002 * step)
        var q = 0
        while (q < params.length) { params(q).adamStep(lrT, step, ms(q), vs(q)); q += 1 }
        off += batchSize
      }
      losses += loss / math.max(1, (idx.length + batchSize - 1) / batchSize)
      epoch += 1
    }
    losses.result()
  }

  /** Forward + backward for one sample; accumulates gradients, returns the
    * sample's contribution to the (already-normalized) loss.
    */
  private def backward(s: GraphSample, totalLabeled: Int, nSamples: Int): Double = {
    val n  = s.n
    val hs = trunk(s)
    val hT = hs(layers)

    // dH flowing back into the trunk's top layer.
    val dHT = Array.fill(n)(new Array[Double](hidden))
    var loss = 0.0

    objective match {
      case Gnn.BottleneckClassification =>
        var v = 0
        while (v < n) {
          val y = s.labels(v)
          if (y >= 0) {
            val fin = new Array[Double](hidden + 1)
            val z   = fuse(hT(v), s.pNorm(v))
            System.arraycopy(hT(v), 0, fin, 0, hidden)
            fin(hidden) = s.pNorm(v)
            val (a, logit) = headLogit(z)
            val p = sigmoid(logit)
            val w = if (y == 1) posWeight else 1.0
            loss += -w * (y * math.log(math.max(p, 1e-12)) +
              (1 - y) * math.log(math.max(1 - p, 1e-12))) / totalLabeled
            val dLogit = w * (p - y) / totalLabeled
            backwardHead(dLogit, a, z, fin, dHT(v))
          }
          v += 1
        }
      case Gnn.JobCostRegression =>
        val fins = Array.ofDim[Array[Double]](n)
        val zs   = Array.ofDim[Array[Double]](n)
        val r    = new Array[Double](hidden)
        var v = 0
        while (v < n) {
          val fin = new Array[Double](hidden + 1)
          System.arraycopy(hT(v), 0, fin, 0, hidden)
          fin(hidden) = s.pNorm(v)
          fins(v) = fin
          zs(v) = fuse(hT(v), s.pNorm(v))
          var j = 0
          while (j < hidden) { r(j) += zs(v)(j) / n; j += 1 }
          v += 1
        }
        val (a, out) = headLogit(r)
        val err = out - s.jobCost
        loss += err * err / nSamples
        val dOut = 2.0 * err / nSamples
        // Head backward on the pooled readout.
        val dR = new Array[Double](hidden)
        backwardHeadInto(dOut, a, r, dR)
        // Distribute dR through the mean pooling and each node's FUSE.
        v = 0
        while (v < n) {
          val dz = new Array[Double](hidden)
          var j = 0
          while (j < hidden) { dz(j) = dR(j) / n; j += 1 }
          backwardFuse(dz, zs(v), fins(v), dHT(v))
          v += 1
        }
    }

    // Trunk backward through the message-passing layers.
    var dH = dHT
    var t = layers - 1
    while (t >= 0) {
      val prev  = hs(t)
      val cur   = hs(t + 1)
      val dPrev = Array.fill(n)(new Array[Double](hidden))
      var v = 0
      while (v < n) {
        val dPre = new Array[Double](hidden)
        var j = 0
        while (j < hidden) { dPre(j) = if (cur(v)(j) > 0) dH(v)(j) else 0.0; j += 1 }
        val mIn  = meanOf(prev, s.upstream(v))
        val mOut = meanOf(prev, s.downstream(v))
        ws(t).addOuter(dPre, prev(v))
        wu(t).addOuter(dPre, mIn)
        wd(t).addOuter(dPre, mOut)
        bl(t).addBiasGrad(dPre)
        ws(t).matTvec(dPre, dPrev(v))
        if (s.upstream(v).nonEmpty) {
          val back = new Array[Double](hidden)
          wu(t).matTvec(dPre, back)
          val k = s.upstream(v).length
          s.upstream(v).foreach { u =>
            var j2 = 0
            while (j2 < hidden) { dPrev(u)(j2) += back(j2) / k; j2 += 1 }
          }
        }
        if (s.downstream(v).nonEmpty) {
          val back = new Array[Double](hidden)
          wd(t).matTvec(dPre, back)
          val k = s.downstream(v).length
          s.downstream(v).foreach { d =>
            var j2 = 0
            while (j2 < hidden) { dPrev(d)(j2) += back(j2) / k; j2 += 1 }
          }
        }
        v += 1
      }
      dH = dPrev
      t -= 1
    }

    // Input projection backward.
    var v = 0
    while (v < n) {
      val dPre = new Array[Double](hidden)
      var j = 0
      while (j < hidden) { dPre(j) = if (hs(0)(v)(j) > 0) dH(v)(j) else 0.0; j += 1 }
      w0.addOuter(dPre, s.x(v))
      b0.addBiasGrad(dPre)
      v += 1
    }
    loss
  }

  /** Backward through head + FUSE for one node (classification path);
    * accumulates into parameter grads and `dh` (grad wrt the agnostic
    * embedding).
    */
  private def backwardHead(
      dLogit: Double, a: Array[Double], z: Array[Double], fin: Array[Double],
      dh: Array[Double],
  ): Unit = {
    val dz = new Array[Double](hidden)
    backwardHeadInto(dLogit, a, z, dz)
    backwardFuse(dz, z, fin, dh)
  }

  /** Backward through the 2-layer MLP head only: input vector `zin`, its
    * head activation `a`; accumulates grads and writes d(zin) into `dzin`.
    */
  private def backwardHeadInto(
      dLogit: Double, a: Array[Double], zin: Array[Double], dzin: Array[Double],
  ): Unit = {
    var k = 0
    while (k < headHidden) { w2.g(k) += dLogit * a(k); k += 1 }
    b2.g(0) += dLogit
    val da = new Array[Double](headHidden)
    k = 0
    while (k < headHidden) { da(k) = if (a(k) > 0) w2.w(k) * dLogit else 0.0; k += 1 }
    w1.addOuter(da, zin)
    b1.addBiasGrad(da)
    w1.matTvec(da, dzin)
  }

  /** Backward through FUSE: given d(z) for the fused output z (pre-computed
    * forward value `z`, input `fin` = [h ; p]), accumulate grads and add the
    * embedding part into `dh`.
    */
  private def backwardFuse(
      dz: Array[Double], z: Array[Double], fin: Array[Double], dh: Array[Double],
  ): Unit = {
    val dzPre = new Array[Double](hidden)
    var j = 0
    while (j < hidden) { dzPre(j) = if (z(j) > 0) dz(j) else 0.0; j += 1 }
    wf.addOuter(dzPre, fin)
    bf.addBiasGrad(dzPre)
    val dFin = new Array[Double](hidden + 1)
    wf.matTvec(dzPre, dFin)
    j = 0
    while (j < hidden) { dh(j) += dFin(j); j += 1 }
  }

  /** Numerical-vs-analytic gradient check hook for tests: returns (analytic,
    * numeric) derivative of the loss wrt one entry of W0.
    */
  private[repro] def gradCheck(s: GraphSample, row: Int, col: Int): (Double, Double) = {
    allParams.foreach(p => java.util.Arrays.fill(p.g, 0.0))
    val labeled = math.max(1, s.labels.count(_ >= 0))
    backward(s, labeled, 1)
    val analytic = w0.g(w0.idx(row, col))
    val epsStep = 1e-6
    def lossAt(delta: Double): Double = {
      w0.w(w0.idx(row, col)) += delta
      val l = objective match {
        case Gnn.BottleneckClassification =>
          val probs = predictProbs(s)
          s.labels.zipWithIndex.collect { case (y, i) if y >= 0 =>
            -(y * math.log(math.max(probs(i), 1e-12)) +
              (1 - y) * math.log(math.max(1 - probs(i), 1e-12))) / labeled
          }.sum
        case Gnn.JobCostRegression =>
          val e = predictJobCost(s) - s.jobCost; e * e
      }
      w0.w(w0.idx(row, col)) -= delta
      l
    }
    val numeric = (lossAt(epsStep) - lossAt(-epsStep)) / (2 * epsStep)
    allParams.foreach(p => java.util.Arrays.fill(p.g, 0.0))
    (analytic, numeric)
  }
}
