#include "dataset/networks.hpp"

#include "common/error.hpp"

namespace aks::data {

namespace {

/// Appends a dense convolution and returns its output spatial size.
int add_conv(Network& net, const std::string& name, int in_c, int out_c,
             int kernel, int stride, int padding, int spatial, int groups = 1) {
  ConvLayer layer;
  layer.name = name;
  layer.in_channels = in_c;
  layer.out_channels = out_c;
  layer.kernel = kernel;
  layer.stride = stride;
  layer.padding = padding;
  layer.in_height = spatial;
  layer.in_width = spatial;
  layer.groups = groups;
  const int out = layer.shape(1).out_height();
  AKS_CHECK(out > 0, "conv " << name << " produces empty output");
  net.convs.push_back(std::move(layer));
  return out;
}

}  // namespace

conv::ConvShape ConvLayer::shape(int batch) const {
  AKS_CHECK(batch > 0, "batch must be positive");
  return {.batch = batch,
          .in_height = in_height,
          .in_width = in_width,
          .in_channels = in_channels,
          .out_channels = out_channels,
          .kernel = kernel,
          .stride = stride,
          .padding = padding};
}

Network vgg16() {
  Network net;
  net.name = "VGG16";
  int s = 224;
  // Block 1
  add_conv(net, "conv1_1", 3, 64, 3, 1, 1, s);
  add_conv(net, "conv1_2", 64, 64, 3, 1, 1, s);
  s /= 2;  // maxpool
  // Block 2
  add_conv(net, "conv2_1", 64, 128, 3, 1, 1, s);
  add_conv(net, "conv2_2", 128, 128, 3, 1, 1, s);
  s /= 2;
  // Block 3
  add_conv(net, "conv3_1", 128, 256, 3, 1, 1, s);
  add_conv(net, "conv3_2", 256, 256, 3, 1, 1, s);
  add_conv(net, "conv3_3", 256, 256, 3, 1, 1, s);
  s /= 2;
  // Block 4
  add_conv(net, "conv4_1", 256, 512, 3, 1, 1, s);
  add_conv(net, "conv4_2", 512, 512, 3, 1, 1, s);
  add_conv(net, "conv4_3", 512, 512, 3, 1, 1, s);
  s /= 2;
  // Block 5
  add_conv(net, "conv5_1", 512, 512, 3, 1, 1, s);
  add_conv(net, "conv5_2", 512, 512, 3, 1, 1, s);
  add_conv(net, "conv5_3", 512, 512, 3, 1, 1, s);
  // Classifier
  net.fcs.push_back({"fc6", 512 * 7 * 7, 4096});
  net.fcs.push_back({"fc7", 4096, 4096});
  net.fcs.push_back({"fc8", 4096, 1000});
  return net;
}

Network resnet50() {
  Network net;
  net.name = "ResNet50";
  add_conv(net, "conv1", 3, 64, 7, 2, 3, 224);

  // Bottleneck stages: {mid channels, out channels, blocks, input spatial}.
  struct Stage {
    const char* name;
    int mid;
    int out;
    int blocks;
    int spatial;   // input spatial size of the stage (after any downsample)
    int stride;    // stride of the first block's 3x3
  };
  const Stage stages[] = {
      {"layer1", 64, 256, 3, 56, 1},
      {"layer2", 128, 512, 4, 56, 2},
      {"layer3", 256, 1024, 6, 28, 2},
      {"layer4", 512, 2048, 3, 14, 2},
  };
  int in_c = 64;
  for (const auto& st : stages) {
    int spatial = st.spatial;
    for (int b = 0; b < st.blocks; ++b) {
      const std::string prefix =
          std::string(st.name) + "_b" + std::to_string(b + 1);
      const int stride = (b == 0) ? st.stride : 1;
      add_conv(net, prefix + "_conv1", in_c, st.mid, 1, 1, 0, spatial);
      const int mid_spatial =
          add_conv(net, prefix + "_conv2", st.mid, st.mid, 3, stride, 1, spatial);
      add_conv(net, prefix + "_conv3", st.mid, st.out, 1, 1, 0, mid_spatial);
      if (b == 0) {
        add_conv(net, prefix + "_down", in_c, st.out, 1, stride, 0, spatial);
      }
      spatial = mid_spatial;
      in_c = st.out;
    }
  }
  net.fcs.push_back({"fc", 2048, 1000});
  return net;
}

Network mobilenet_v2() {
  Network net;
  net.name = "MobileNetV2";
  add_conv(net, "conv_stem", 3, 32, 3, 2, 1, 224);

  // Inverted residual settings (t = expansion, c = out channels,
  // n = repeats, s = stride of first repeat), per the MobileNetV2 paper.
  struct Block {
    int t, c, n, s;
  };
  const Block blocks[] = {
      {1, 16, 1, 1},  {6, 24, 2, 2},  {6, 32, 3, 2},  {6, 64, 4, 2},
      {6, 96, 3, 1},  {6, 160, 3, 2}, {6, 320, 1, 1},
  };
  int in_c = 32;
  int spatial = 112;
  int idx = 0;
  for (const auto& blk : blocks) {
    for (int r = 0; r < blk.n; ++r) {
      const std::string prefix = "ir" + std::to_string(++idx);
      const int stride = (r == 0) ? blk.s : 1;
      const int expanded = in_c * blk.t;
      if (blk.t != 1) {
        add_conv(net, prefix + "_expand", in_c, expanded, 1, 1, 0, spatial);
      }
      // Depthwise 3x3: recorded for completeness, excluded from GEMM
      // lowering by its group count.
      ConvLayer dw;
      dw.name = prefix + "_dw";
      dw.in_channels = expanded;
      dw.out_channels = expanded;
      dw.kernel = 3;
      dw.stride = stride;
      dw.padding = 1;
      dw.in_height = spatial;
      dw.in_width = spatial;
      dw.groups = expanded;
      const int dw_spatial = dw.shape(1).out_height();
      net.convs.push_back(dw);
      add_conv(net, prefix + "_project", expanded, blk.c, 1, 1, 0, dw_spatial);
      spatial = dw_spatial;
      in_c = blk.c;
    }
  }
  add_conv(net, "conv_head", 320, 1280, 1, 1, 0, spatial);
  net.fcs.push_back({"fc", 1280, 1000});
  return net;
}

std::vector<Network> paper_networks() {
  return {vgg16(), resnet50(), mobilenet_v2()};
}

}  // namespace aks::data
