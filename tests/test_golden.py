"""Golden digests of every symbolic CLI subcommand on problems/*.vp.

Each case runs ``jetvar.cli.main`` and compares the SHA-256 of stdout with
a digest recorded once and kept fixed, so any change to a symbolic result
or to its rendering shows up here.  Numeric subcommands are left out: their
floats move with the last bits of the quadrature rule and of the numpy
build, so ``test_numeric_golden.py`` compares them within tolerances
instead.  ``adjoint`` reads a bilinear form written from
``random_bilinear_form(random.Random(0), ctx)``.
"""

import hashlib
import itertools
import pathlib
import random

import pytest

from jetvar.cli import main
from jetvar.randgen import random_bilinear_form
from jetvar.textio import parse_problem_file, print_object

PROBLEMS = pathlib.Path(__file__).resolve().parent.parent / "problems"

BILINEAR = "{bilinear}"


def _cases():
    for path in sorted(PROBLEMS.glob("*.vp")):
        pf = parse_problem_file(path.read_text(encoding="utf-8"))
        argvs = []
        for lag in sorted(pf.lagrangians):
            argvs.append(["el", "--lagrangian", lag])
            argvs.append(["helmholtz", "--lagrangian", lag])
            argvs.append(["jacobi", "--lagrangian", lag])
            names = sorted(pf.variations)
            for a, b in itertools.product(names, repeat=2):
                argvs.append(["hessian", "--lagrangian", lag,
                              "--fields", f"{a},{b}"])
            for a in names:
                argvs.append(["variation", "--lagrangian", lag, "--fields", a])
            if len(names) > 1:
                argvs.append(["variation", "--lagrangian", lag,
                              "--fields", ",".join(names)])
        for src in sorted(pf.sources):
            argvs.append(["helmholtz", "--source", src])
        argvs.append(["adjoint", "--bilinear", BILINEAR])
        for argv in argvs:
            for fmt in ("plain", "latex", "structured"):
                full = [argv[0], str(path), *argv[1:], "--format", fmt]
                yield " ".join([path.name, *argv, fmt]), full


CASES = dict(_cases())

DIGESTS = {
    'beam.vp adjoint --bilinear {bilinear} latex':
        '121aa02a0b83fd4abb68cd7958fe7e15c2304abee3e87db3f5e7a341ed428919',
    'beam.vp adjoint --bilinear {bilinear} plain':
        '42715aaf5507da066ec00f87419b5e5d44f3aef3d5b7e4ab9d1dae78d37779cc',
    'beam.vp adjoint --bilinear {bilinear} structured':
        '79e0ee96f1c64d58a09805ea02c8dd32387464719b09df1627e0bda49900f814',
    'beam.vp el --lagrangian beam latex':
        'b1a316ebf6d0ee13c7c672259e96bbd418f45b5c621b7c1b7834f2b28cb8ded5',
    'beam.vp el --lagrangian beam plain':
        '0f23c5ad83ab8be305ec7e054a9d0c7fd5ef8f945755c896fad72d78c4c2eab1',
    'beam.vp el --lagrangian beam structured':
        'a0413906dab9b23e9486c7569d7906deb1f2a49c588592d95ea9c3c0a9c9483a',
    'beam.vp helmholtz --lagrangian beam latex':
        'a9dd88195b89089be74e88a0b5f70326fa2ed060a516ca71ed71b98bacd5eb6a',
    'beam.vp helmholtz --lagrangian beam plain':
        'a9dd88195b89089be74e88a0b5f70326fa2ed060a516ca71ed71b98bacd5eb6a',
    'beam.vp helmholtz --lagrangian beam structured':
        'fcf582de06149a0869bc6d5be8645b2ead380a6e15015837dfbeaeea75746b9b',
    'beam.vp hessian --lagrangian beam --fields b1,b1 latex':
        '9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa',
    'beam.vp hessian --lagrangian beam --fields b1,b1 plain':
        '9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa',
    'beam.vp hessian --lagrangian beam --fields b1,b1 structured':
        '668a696538abc520c5e5de9407ace331e8b6ef09bd5b917003f79ff03a0258dc',
    'beam.vp hessian --lagrangian beam --fields b1,b2 latex':
        '9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa',
    'beam.vp hessian --lagrangian beam --fields b1,b2 plain':
        '9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa',
    'beam.vp hessian --lagrangian beam --fields b1,b2 structured':
        '668a696538abc520c5e5de9407ace331e8b6ef09bd5b917003f79ff03a0258dc',
    'beam.vp hessian --lagrangian beam --fields b2,b1 latex':
        '9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa',
    'beam.vp hessian --lagrangian beam --fields b2,b1 plain':
        '9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa',
    'beam.vp hessian --lagrangian beam --fields b2,b1 structured':
        '668a696538abc520c5e5de9407ace331e8b6ef09bd5b917003f79ff03a0258dc',
    'beam.vp hessian --lagrangian beam --fields b2,b2 latex':
        '9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa',
    'beam.vp hessian --lagrangian beam --fields b2,b2 plain':
        '9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa',
    'beam.vp hessian --lagrangian beam --fields b2,b2 structured':
        '668a696538abc520c5e5de9407ace331e8b6ef09bd5b917003f79ff03a0258dc',
    'beam.vp jacobi --lagrangian beam latex':
        '70ca83077f022d24fe5d23069e0635a332eae97d9eb646c7ad1fed778113417e',
    'beam.vp jacobi --lagrangian beam plain':
        '2539fdde1f5d81d5efe010b14fe6dbc38c67e462f31a20b5dbec482da1fbb6c2',
    'beam.vp jacobi --lagrangian beam structured':
        'f060f8d05fc309ce7dd4aec3c2abf1c9a5ff3dba64a95d8dcd75bccefe73dda0',
    'beam.vp variation --lagrangian beam --fields b1 latex':
        '32653e46db0f09b641c0dbf227ed7a16354fb4ce25c8bd72c6262c2e2f3e5ce7',
    'beam.vp variation --lagrangian beam --fields b1 plain':
        '59350d9041f952159ddf3805c18419664b305c708daf37f96e2c835f29a037f4',
    'beam.vp variation --lagrangian beam --fields b1 structured':
        '156bddb0a386150396746b43493d7f3f24681efbb8ed51aabdee990727b1cbd5',
    'beam.vp variation --lagrangian beam --fields b1,b2 latex':
        '9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa',
    'beam.vp variation --lagrangian beam --fields b1,b2 plain':
        '9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa',
    'beam.vp variation --lagrangian beam --fields b1,b2 structured':
        '688043aa49bdaddd81de9fbc2f01b4a805f3a78355c4bf901b30362a37208d99',
    'beam.vp variation --lagrangian beam --fields b2 latex':
        '47f47857b3c58ccf10e85413c9bd49c7823cb4dc598c192ffedcc06cbadf514e',
    'beam.vp variation --lagrangian beam --fields b2 plain':
        'ef0a170214e16a2fecaa62a95b29a6a918dc25642ec1d80050723adc1463dd40',
    'beam.vp variation --lagrangian beam --fields b2 structured':
        'a3662e24f8b301b39867db806f0f927a8524c10da1e23838d5d628d7320ddb57',
    'geodesic_flat.vp adjoint --bilinear {bilinear} latex':
        '7ac5e5e634f6b6e3d2d88818fd0c87c6e4305a4be2602376bff7fbff444d2b60',
    'geodesic_flat.vp adjoint --bilinear {bilinear} plain':
        '7e60a2aa4fb18a3611bc58ea22de308172b5eb8ff94f79e7df094e42ed450d4e',
    'geodesic_flat.vp adjoint --bilinear {bilinear} structured':
        '5c3307531f8f4fb7eca9f8b79d24f6667e1c901e35811f55c33e4b0857258f62',
    'geodesic_flat.vp el --lagrangian free latex':
        '7a3ba7eed879ec08100f060fc89526d4736bb9efefebc4ade468482cc4b4febe',
    'geodesic_flat.vp el --lagrangian free plain':
        'ca8772eff425ac3863f0bda022266380e0ad0e909d518a01aa73c7fda52348c3',
    'geodesic_flat.vp el --lagrangian free structured':
        '3ffc1007de9a88069969cf0d1fc0f5bdf691fb3d84802654bccf0e991b83295b',
    'geodesic_flat.vp helmholtz --lagrangian free latex':
        'a9dd88195b89089be74e88a0b5f70326fa2ed060a516ca71ed71b98bacd5eb6a',
    'geodesic_flat.vp helmholtz --lagrangian free plain':
        'a9dd88195b89089be74e88a0b5f70326fa2ed060a516ca71ed71b98bacd5eb6a',
    'geodesic_flat.vp helmholtz --lagrangian free structured':
        'fcf582de06149a0869bc6d5be8645b2ead380a6e15015837dfbeaeea75746b9b',
    'geodesic_flat.vp hessian --lagrangian free --fields b1,b1 latex':
        '9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa',
    'geodesic_flat.vp hessian --lagrangian free --fields b1,b1 plain':
        '9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa',
    'geodesic_flat.vp hessian --lagrangian free --fields b1,b1 structured':
        '668a696538abc520c5e5de9407ace331e8b6ef09bd5b917003f79ff03a0258dc',
    'geodesic_flat.vp hessian --lagrangian free --fields b1,b2 latex':
        '9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa',
    'geodesic_flat.vp hessian --lagrangian free --fields b1,b2 plain':
        '9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa',
    'geodesic_flat.vp hessian --lagrangian free --fields b1,b2 structured':
        '668a696538abc520c5e5de9407ace331e8b6ef09bd5b917003f79ff03a0258dc',
    'geodesic_flat.vp hessian --lagrangian free --fields b2,b1 latex':
        '9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa',
    'geodesic_flat.vp hessian --lagrangian free --fields b2,b1 plain':
        '9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa',
    'geodesic_flat.vp hessian --lagrangian free --fields b2,b1 structured':
        '668a696538abc520c5e5de9407ace331e8b6ef09bd5b917003f79ff03a0258dc',
    'geodesic_flat.vp hessian --lagrangian free --fields b2,b2 latex':
        '9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa',
    'geodesic_flat.vp hessian --lagrangian free --fields b2,b2 plain':
        '9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa',
    'geodesic_flat.vp hessian --lagrangian free --fields b2,b2 structured':
        '668a696538abc520c5e5de9407ace331e8b6ef09bd5b917003f79ff03a0258dc',
    'geodesic_flat.vp jacobi --lagrangian free latex':
        'd82b4b0663671150a786499d8874a23859e17659769eec4940f49f269483d522',
    'geodesic_flat.vp jacobi --lagrangian free plain':
        'a782dcc6bf9d25f205163ff8f5fd895418263684658624173cb2da1edbbe4c1f',
    'geodesic_flat.vp jacobi --lagrangian free structured':
        'a4a6e3246ec61555ff0ffdfed247e6b0cc22d24aaa17349408da73418e195eeb',
    'geodesic_flat.vp variation --lagrangian free --fields b1 latex':
        'dee0994ec94844c3d5fd154fbaaae4a9e3ee09d79b0a0f74482f3a7b8df32bd3',
    'geodesic_flat.vp variation --lagrangian free --fields b1 plain':
        '0122adfa25401e2c0eb585aab0b964d4481588795fb2e54ce8b8c1ffd9440b70',
    'geodesic_flat.vp variation --lagrangian free --fields b1 structured':
        '6d54814ab2b12701746b394b331545cfd39c5f10ed2ab2316b62c71330795861',
    'geodesic_flat.vp variation --lagrangian free --fields b1,b2 latex':
        '9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa',
    'geodesic_flat.vp variation --lagrangian free --fields b1,b2 plain':
        '9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa',
    'geodesic_flat.vp variation --lagrangian free --fields b1,b2 structured':
        '688043aa49bdaddd81de9fbc2f01b4a805f3a78355c4bf901b30362a37208d99',
    'geodesic_flat.vp variation --lagrangian free --fields b2 latex':
        '011fd07db15658fb4d239d463f668b42ae1de56519d598ab6389b53671a40220',
    'geodesic_flat.vp variation --lagrangian free --fields b2 plain':
        '139f9da5a4d0393fc6d1cd2c5ef3ab4fab597e8f33d8262b86fe1d9355f7c69a',
    'geodesic_flat.vp variation --lagrangian free --fields b2 structured':
        '092859abf68727c03b88bf248eb5e568821d34e69d91c2e765edd20a774961bc',
    'geodesic_metric.vp adjoint --bilinear {bilinear} latex':
        '7ac5e5e634f6b6e3d2d88818fd0c87c6e4305a4be2602376bff7fbff444d2b60',
    'geodesic_metric.vp adjoint --bilinear {bilinear} plain':
        '7e60a2aa4fb18a3611bc58ea22de308172b5eb8ff94f79e7df094e42ed450d4e',
    'geodesic_metric.vp adjoint --bilinear {bilinear} structured':
        '5c3307531f8f4fb7eca9f8b79d24f6667e1c901e35811f55c33e4b0857258f62',
    'geodesic_metric.vp el --lagrangian geodesic latex':
        '5ec0fa17adcd4ca7d46cba07ee7735b65041b6c2b7ca6cb001b28111f6adff81',
    'geodesic_metric.vp el --lagrangian geodesic plain':
        '502e07052d272a168e823b352e54071a8493128c9cd3a9bcbf51c112896b960e',
    'geodesic_metric.vp el --lagrangian geodesic structured':
        '3cde9c86bd5c3dc46a3e5d48e93922fcb8f895282f151cb8f002fa0d717eb2f2',
    'geodesic_metric.vp helmholtz --lagrangian geodesic latex':
        'a9dd88195b89089be74e88a0b5f70326fa2ed060a516ca71ed71b98bacd5eb6a',
    'geodesic_metric.vp helmholtz --lagrangian geodesic plain':
        'a9dd88195b89089be74e88a0b5f70326fa2ed060a516ca71ed71b98bacd5eb6a',
    'geodesic_metric.vp helmholtz --lagrangian geodesic structured':
        'fcf582de06149a0869bc6d5be8645b2ead380a6e15015837dfbeaeea75746b9b',
    'geodesic_metric.vp jacobi --lagrangian geodesic latex':
        '796dae177d4efbe95c6be625013eff00e55ed4fcc280db216815adf214f23b8f',
    'geodesic_metric.vp jacobi --lagrangian geodesic plain':
        'a159bfc1b4e2096b92b1d54f1ec5c7f1eba3fac7d3329d98b6c51abe23099803',
    'geodesic_metric.vp jacobi --lagrangian geodesic structured':
        'e45a5a7a82777272c8a68ccc9a1ffe1a698c7fdf247921d4eeb2fd0dde97ebf8',
    'laplace2d.vp adjoint --bilinear {bilinear} latex':
        '70b52e5c9459425ebb6d19840757a01816f05ee9473663cd8e02536ac463bdb2',
    'laplace2d.vp adjoint --bilinear {bilinear} plain':
        '08ecf9f583234bc272529165461f8ca4b2d922880b909205ff55c25a94ee80f3',
    'laplace2d.vp adjoint --bilinear {bilinear} structured':
        'd3ffbbe96dcab2676fd52688a12a6f91f62964914dc2806c3ea11f368d7884df',
    'laplace2d.vp el --lagrangian dirichlet latex':
        '4eb56ee04879d00ee5f494470e8c384c27cedc1bb419298854a2216d9116b067',
    'laplace2d.vp el --lagrangian dirichlet plain':
        'df151af6ab4d1eacea25cf7caa9e8e30f8b764595e4080a92eb9d9ee4b95e25c',
    'laplace2d.vp el --lagrangian dirichlet structured':
        '7d78a3ffd6ae6bbc16074397bd3ecc6200299cba4937c5d5e3c50c9bf36d77a1',
    'laplace2d.vp helmholtz --lagrangian dirichlet latex':
        'a9dd88195b89089be74e88a0b5f70326fa2ed060a516ca71ed71b98bacd5eb6a',
    'laplace2d.vp helmholtz --lagrangian dirichlet plain':
        'a9dd88195b89089be74e88a0b5f70326fa2ed060a516ca71ed71b98bacd5eb6a',
    'laplace2d.vp helmholtz --lagrangian dirichlet structured':
        'fcf582de06149a0869bc6d5be8645b2ead380a6e15015837dfbeaeea75746b9b',
    'laplace2d.vp hessian --lagrangian dirichlet --fields b1,b1 latex':
        '9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa',
    'laplace2d.vp hessian --lagrangian dirichlet --fields b1,b1 plain':
        '9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa',
    'laplace2d.vp hessian --lagrangian dirichlet --fields b1,b1 structured':
        '668a696538abc520c5e5de9407ace331e8b6ef09bd5b917003f79ff03a0258dc',
    'laplace2d.vp hessian --lagrangian dirichlet --fields b1,b2 latex':
        '9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa',
    'laplace2d.vp hessian --lagrangian dirichlet --fields b1,b2 plain':
        '9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa',
    'laplace2d.vp hessian --lagrangian dirichlet --fields b1,b2 structured':
        '668a696538abc520c5e5de9407ace331e8b6ef09bd5b917003f79ff03a0258dc',
    'laplace2d.vp hessian --lagrangian dirichlet --fields b2,b1 latex':
        '9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa',
    'laplace2d.vp hessian --lagrangian dirichlet --fields b2,b1 plain':
        '9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa',
    'laplace2d.vp hessian --lagrangian dirichlet --fields b2,b1 structured':
        '668a696538abc520c5e5de9407ace331e8b6ef09bd5b917003f79ff03a0258dc',
    'laplace2d.vp hessian --lagrangian dirichlet --fields b2,b2 latex':
        '9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa',
    'laplace2d.vp hessian --lagrangian dirichlet --fields b2,b2 plain':
        '9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa',
    'laplace2d.vp hessian --lagrangian dirichlet --fields b2,b2 structured':
        '668a696538abc520c5e5de9407ace331e8b6ef09bd5b917003f79ff03a0258dc',
    'laplace2d.vp jacobi --lagrangian dirichlet latex':
        'bd19b3b6bd748abb2e385ecbddf6f6bd28375e12874170a0840f6a5d3b9106f6',
    'laplace2d.vp jacobi --lagrangian dirichlet plain':
        '9a965437817353117a6e20eed852a7ddae33a227012e007d8a57980260f2f296',
    'laplace2d.vp jacobi --lagrangian dirichlet structured':
        '85d1600005ba7e29a5cff5d365cb57044be1eaf3435cb25883c3a7a8b3dcfdc1',
    'laplace2d.vp variation --lagrangian dirichlet --fields b1 latex':
        'fd2eb92cfb5feabdeb39c717a42efc687f1f13782e73c8d94a7f60d2958cdac3',
    'laplace2d.vp variation --lagrangian dirichlet --fields b1 plain':
        'ce84b52e474b3120edc79d828ce6abf1da5c6bc6534fd1600064b07e83657bed',
    'laplace2d.vp variation --lagrangian dirichlet --fields b1 structured':
        '4afc7a609f87577d3ed56b40d866231620f7d84f77f70cabc9770b85eba1d2c1',
    'laplace2d.vp variation --lagrangian dirichlet --fields b1,b2 latex':
        '9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa',
    'laplace2d.vp variation --lagrangian dirichlet --fields b1,b2 plain':
        '9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa',
    'laplace2d.vp variation --lagrangian dirichlet --fields b1,b2 structured':
        '688043aa49bdaddd81de9fbc2f01b4a805f3a78355c4bf901b30362a37208d99',
    'laplace2d.vp variation --lagrangian dirichlet --fields b2 latex':
        '3d2b5b709b887159e5295f63c6bbc5e95fa21bf94be39b544fc7430cf6ed8b9b',
    'laplace2d.vp variation --lagrangian dirichlet --fields b2 plain':
        '5951315e69258598fa9d3158e4fb02ed2fd566b03421ab783eea0018b9b5c533',
    'laplace2d.vp variation --lagrangian dirichlet --fields b2 structured':
        '5559065525547f544e4ae4bcd73c151ae7854ed6c41f037d70d2963971805a8d',
    'oscillator.vp adjoint --bilinear {bilinear} latex':
        'ec27800789b458768e89de1b352f256643c08e95af49abc23e0f4deab8ed083b',
    'oscillator.vp adjoint --bilinear {bilinear} plain':
        '49e6dc2f6f80832eb98101e747e750091185d54e98c038990b137f654a986ed7',
    'oscillator.vp adjoint --bilinear {bilinear} structured':
        '79e0ee96f1c64d58a09805ea02c8dd32387464719b09df1627e0bda49900f814',
    'oscillator.vp el --lagrangian osc latex':
        '3468c915ef19cf8116144a235408476d21c57569fa69754f791d81e9e3198a64',
    'oscillator.vp el --lagrangian osc plain':
        '9ec5cfcb999a2d7d17131decb13671750d94dc846a58998e3cb2968dcd254592',
    'oscillator.vp el --lagrangian osc structured':
        'f03f3752ac2d9a94523825f2eb0e196358af8aba9e4fd288e0b4cc369682513e',
    'oscillator.vp helmholtz --lagrangian osc latex':
        'a9dd88195b89089be74e88a0b5f70326fa2ed060a516ca71ed71b98bacd5eb6a',
    'oscillator.vp helmholtz --lagrangian osc plain':
        'a9dd88195b89089be74e88a0b5f70326fa2ed060a516ca71ed71b98bacd5eb6a',
    'oscillator.vp helmholtz --lagrangian osc structured':
        'fcf582de06149a0869bc6d5be8645b2ead380a6e15015837dfbeaeea75746b9b',
    'oscillator.vp helmholtz --source curvature latex':
        'a9dd88195b89089be74e88a0b5f70326fa2ed060a516ca71ed71b98bacd5eb6a',
    'oscillator.vp helmholtz --source curvature plain':
        'a9dd88195b89089be74e88a0b5f70326fa2ed060a516ca71ed71b98bacd5eb6a',
    'oscillator.vp helmholtz --source curvature structured':
        'fcf582de06149a0869bc6d5be8645b2ead380a6e15015837dfbeaeea75746b9b',
    'oscillator.vp helmholtz --source drift latex':
        '1cf6a74ccf3f0a6c52155481ed0ec1f1cd266c68d8537936d615f60c3b8da106',
    'oscillator.vp helmholtz --source drift plain':
        '6cf6eff013464b9702128313a6782c4aa5196ba07c59ecd3ea40b9645f5dee09',
    'oscillator.vp helmholtz --source drift structured':
        '6fde162f9ff4f289285f2e496e469563a413601e93866a56e65b010840ad8e11',
    'oscillator.vp hessian --lagrangian osc --fields b1,b1 latex':
        'ee3aa64bb94a50845d5024cd4bd20202a4567aed5cd5328c0d97e9920775fc28',
    'oscillator.vp hessian --lagrangian osc --fields b1,b1 plain':
        'ee3aa64bb94a50845d5024cd4bd20202a4567aed5cd5328c0d97e9920775fc28',
    'oscillator.vp hessian --lagrangian osc --fields b1,b1 structured':
        '6c8f7923464e694656168a03c3025e92bfca724caedbf9434ba4f48ecd1eb5cc',
    'oscillator.vp hessian --lagrangian osc --fields b1,b2 latex':
        '8ead8bba300c6b140785962bc20a01709b31056f01b63b173ba782c710d5ef0b',
    'oscillator.vp hessian --lagrangian osc --fields b1,b2 plain':
        '8ead8bba300c6b140785962bc20a01709b31056f01b63b173ba782c710d5ef0b',
    'oscillator.vp hessian --lagrangian osc --fields b1,b2 structured':
        'c35ae2f0cb44d95f9e85e7406d0198b502a25c6bb8257efea8f8537b7358100f',
    'oscillator.vp hessian --lagrangian osc --fields b1,b3 latex':
        '4ddd9f6f860aa3f5b6f260723b296416150584247f99376d31bc594b3cbacb59',
    'oscillator.vp hessian --lagrangian osc --fields b1,b3 plain':
        '0682a174b66105eb7e9dbd591c7aca82db140790d7671eca5598a76e6499dd67',
    'oscillator.vp hessian --lagrangian osc --fields b1,b3 structured':
        '5f677e11c671be139cd8e7b975502bbc8178c63abe2b0eba5273fe00046f513c',
    'oscillator.vp hessian --lagrangian osc --fields b2,b1 latex':
        '8ead8bba300c6b140785962bc20a01709b31056f01b63b173ba782c710d5ef0b',
    'oscillator.vp hessian --lagrangian osc --fields b2,b1 plain':
        '8ead8bba300c6b140785962bc20a01709b31056f01b63b173ba782c710d5ef0b',
    'oscillator.vp hessian --lagrangian osc --fields b2,b1 structured':
        'c35ae2f0cb44d95f9e85e7406d0198b502a25c6bb8257efea8f8537b7358100f',
    'oscillator.vp hessian --lagrangian osc --fields b2,b2 latex':
        'f9733f7227e8d5df46eef96488836ecac31e04523a3c3c80fc09f049ffa88bf4',
    'oscillator.vp hessian --lagrangian osc --fields b2,b2 plain':
        '3a735fdb71933b51572b2436c0f3eb55b3f8164604c7ffc5066a97c782d71bf9',
    'oscillator.vp hessian --lagrangian osc --fields b2,b2 structured':
        '3b63baf62a08dd308b8e641d5fbb0e9e8702e0c12b9d4a45b5e1cb261c3d75ed',
    'oscillator.vp hessian --lagrangian osc --fields b2,b3 latex':
        '484ed17f91966633cba07c2fc95c80dd8965d6c5e02915589992027b76a0e1fb',
    'oscillator.vp hessian --lagrangian osc --fields b2,b3 plain':
        '9a5459d6bb079dbaeb18ea5a44a728038d7220dc6e16b9deb1b8129324d6a00a',
    'oscillator.vp hessian --lagrangian osc --fields b2,b3 structured':
        'b8d7ea1cd2b57356e9816896ef2867082c6d055f75a7e411207f7799b704e1b3',
    'oscillator.vp hessian --lagrangian osc --fields b3,b1 latex':
        '5e3d8ddefb3b922f4939e1902d7f34ce1aae1efd5f84483b89ce3081c25e19af',
    'oscillator.vp hessian --lagrangian osc --fields b3,b1 plain':
        '28ac658f029d72e34677f977f27f0a08d75d9a59ecebf101314ce8e3fba4dfbc',
    'oscillator.vp hessian --lagrangian osc --fields b3,b1 structured':
        '38e00b84f163b21f5bf0c77e1c660633475b330e8f81b5ff45e0cbcbbc0a84fe',
    'oscillator.vp hessian --lagrangian osc --fields b3,b2 latex':
        '3174efb6a5008c9ca579d41af5fded048c186a254d724a6b82a443a6ad7242f1',
    'oscillator.vp hessian --lagrangian osc --fields b3,b2 plain':
        '754cccba6a6b99e5b88ac16353e229e8857908ec0796707b78280175ff689316',
    'oscillator.vp hessian --lagrangian osc --fields b3,b2 structured':
        '67ec6bdbecda21ed132961edb1c97670f3acce89e07917be74d1b8ab04dbe482',
    'oscillator.vp hessian --lagrangian osc --fields b3,b3 latex':
        'f7601a0d720a38951696b27631d3aae7df728275b47806f57046b2f6e4f81ee2',
    'oscillator.vp hessian --lagrangian osc --fields b3,b3 plain':
        '6bbd6a56bc57583b02d8fd664413d121a139d3b44edefe4a586faaf32d68734a',
    'oscillator.vp hessian --lagrangian osc --fields b3,b3 structured':
        '19fa26d755347ecb0f4dda6a9ce933391b912253ada69dbf896dc94aeec085bd',
    'oscillator.vp jacobi --lagrangian osc latex':
        '0a70043ced4a8d8245307e854342b174b3e36f660cc9ef862efe6ade226f4998',
    'oscillator.vp jacobi --lagrangian osc plain':
        '0588968bd4b8d6e9c606e720eb5f4fca193df54c79aa1d2d0e41661997fc95ff',
    'oscillator.vp jacobi --lagrangian osc structured':
        '32df3d13f6aaa36e588f9a3ba1a22413d7999b6922d8b75b44a4a0c86aebef53',
    'oscillator.vp variation --lagrangian osc --fields b1 latex':
        '4b7269a101543ceb90b0c4047f031323d66449b929ede51e6bfa3b1df693e2fe',
    'oscillator.vp variation --lagrangian osc --fields b1 plain':
        '906ad52035717a31bfe103e7ba54688cc8a67db534ec060c8d81a54fef4a50c0',
    'oscillator.vp variation --lagrangian osc --fields b1 structured':
        '76b6665c968d244e056b39cb1ac904b2a67028a9e9e146146ebc5553891fe2f4',
    'oscillator.vp variation --lagrangian osc --fields b1,b2,b3 latex':
        '9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa',
    'oscillator.vp variation --lagrangian osc --fields b1,b2,b3 plain':
        '9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa',
    'oscillator.vp variation --lagrangian osc --fields b1,b2,b3 structured':
        '99f17b557a48a3bc3df253321b6a09200efc60afb2d3fda12c9a43fdea48cf14',
    'oscillator.vp variation --lagrangian osc --fields b2 latex':
        '6a333815aced5791584b5911cec09a4b6fb82e0b00f8f3f837c56786fd86d904',
    'oscillator.vp variation --lagrangian osc --fields b2 plain':
        '22a1d9f58efa3e1d27ced006adfc00fdb9ed56d737c49ceff0a5ddc72018ba42',
    'oscillator.vp variation --lagrangian osc --fields b2 structured':
        '1615876141fe9686117efbeafa6efcf3a8c1b03a45c42d0073bff6725931eef8',
    'oscillator.vp variation --lagrangian osc --fields b3 latex':
        'a4d54f20fdd762be7f0710de4b577cb076511e0da920c89e74dd351eb1ed557e',
    'oscillator.vp variation --lagrangian osc --fields b3 plain':
        'fa34af87bedf5059404ab1e8afc3b357e22bb80858a8e8ef3cd7e36aaf9cf0cc',
    'oscillator.vp variation --lagrangian osc --fields b3 structured':
        'c8dbcfb582f2947c121ef18c22730bdeb41f6a539b214be262732401ac9967b0',
}


@pytest.fixture(scope="module")
def bilinear_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("bilinear")
    out = {}
    for path in sorted(PROBLEMS.glob("*.vp")):
        ctx = parse_problem_file(path.read_text(encoding="utf-8")).ctx
        form = random_bilinear_form(random.Random(0), ctx)
        target = root / (path.stem + ".json")
        target.write_text(print_object(form, "structured"), encoding="utf-8")
        out[str(path)] = str(target)
    return out


def run_case(argv, bilinear_files):
    argv = [bilinear_files[argv[1]] if a == BILINEAR else a for a in argv]
    return main(argv)


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_digest(case, capsys, bilinear_files):
    code = run_case(CASES[case], bilinear_files)
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == DIGESTS[case]


def test_every_case_has_a_digest():
    assert sorted(CASES) == sorted(DIGESTS)
