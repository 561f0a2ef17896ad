#include "src/hv/guest_memory.h"

#include <algorithm>
#include <bit>

namespace nymix {

namespace {
// Process-wide creation counter for the id-less constructor, used by
// standalone tests that build a GuestMemory without an EventLoop. Sim code
// paths (VirtualMachine) pass an explicit per-loop id instead, so parallel
// shards never touch this.
uint64_t next_memory_id = 1;
}  // namespace

GuestMemory::GuestMemory(uint64_t ram_bytes) : GuestMemory(ram_bytes, next_memory_id++) {}

GuestMemory::GuestMemory(uint64_t ram_bytes, uint64_t id)
    : id_(id), total_pages_((ram_bytes + kPageSize - 1) / kPageSize), zero_pages_(total_pages_) {}

const BaseImage* GuestMemory::image() const {
  NYMIX_CHECK_MSG(image_ == nullptr || image_->mutation_count() == image_mutation_, "tampered");
  return image_;
}

void GuestMemory::MapImagePages(const BaseImage& image, uint64_t count) {
  ++generation_;
  NYMIX_CHECK(image.block_count() > 0);
  // Mapping takes only zero pages, and dirtying reaches image pages only
  // once those are gone: every mapping precedes every image page dirtied.
  count = std::min(count, zero_pages_);
  if (count > 0 && image_ == nullptr) {
    image_ = &image;
    image_mutation_ = image.mutation_count();
  }
  NYMIX_CHECK_MSG(count == 0 || this->image() == &image, "one image per memory until Wipe");
  mapped_ += count;
  zero_pages_ -= count;
}

void GuestMemory::DirtyPages(uint64_t count) {
  ++generation_;
  count = std::min(count, zero_pages_ + image_pages());
  uint64_t from_zero = std::min(count, zero_pages_);
  zero_pages_ -= from_zero;
  dirtied_ += count - from_zero;
  unique_pages_ += count;
}

std::map<uint64_t, uint64_t> GuestMemory::pages_by_content() const {
  std::map<uint64_t, uint64_t> histogram;
  ContentTotals({this}, [&](uint64_t content, uint64_t pages) {
    histogram.emplace_hint(histogram.end(), content, pages);
  });
  return histogram;
}

void GuestMemory::Wipe() {
  uint64_t generation = generation_ + 1;
  *this = GuestMemory(total_bytes(), id_);
  generation_ = generation;
}

namespace {

// The memories of one shape and the shape's cursor through an image walk.
struct Shape {
  uint64_t mapped;
  std::map<uint64_t, uint64_t> dirtied;  // dirtied_image_pages() -> memories
  uint64_t cycles = 0;     // whole passes over the blocks...
  uint64_t remainder = 0;  // ...then blocks [0, remainder) once more
  uint64_t seen = 0;       // pages of one memory at earlier positions
};

// Calls sink(content, pages of all `shapes`) for every position of the
// image's content order that some shape maps, in order, and returns how many
// positions that was. A position is one block, held once per whole pass and
// once more inside the partial pass.
template <typename Sink>
uint64_t WalkImageContents(const BaseImage& image, std::vector<Shape>& shapes, Sink&& sink) {
  const BaseImage::ContentOrder& order = image.content_order();
  uint64_t blocks = image.block_count();
  uint64_t prefix = 0;  // blocks the widest shape maps; the others map fewer
  for (Shape& shape : shapes) {
    shape.cycles = shape.mapped / blocks;
    shape.remainder = shape.mapped % blocks;
    prefix = std::max(prefix, std::min(shape.mapped, blocks));
  }
  std::vector<uint64_t> visit((blocks + 63) / 64, 0);  // one bit per position
  for (uint64_t block = 0; block < prefix; ++block) {
    visit[order.position_of[block] / 64] |= uint64_t{1} << (order.position_of[block] % 64);
  }
  uint64_t walked = 0;
  for (size_t word = 0; word < visit.size(); ++word) {
    for (uint64_t bits = visit[word]; bits != 0; bits &= bits - 1) {
      const auto& [content, block] = order.blocks[word * 64 + std::countr_zero(bits)];
      uint64_t total = 0;
      for (Shape& shape : shapes) {
        uint64_t held = shape.cycles + (block < shape.remainder ? 1 : 0);
        // A memory that dirtied d pages lost the first d in content order.
        for (const auto& [d, memories] : shape.dirtied) {
          total += memories * (held - std::min(held, d > shape.seen ? d - shape.seen : 0));
        }
        shape.seen += held;
      }
      sink(content, total);
      ++walked;
    }
  }
  return walked;
}

}  // namespace

uint64_t ContentTotals(const std::vector<const GuestMemory*>& memories,
                       const std::function<void(uint64_t, uint64_t)>& sink) {
  uint64_t zero_pages = 0;
  std::vector<const BaseImage*> images;
  std::vector<std::vector<Shape>> shapes;  // per entry of `images`
  for (const GuestMemory* memory : memories) {
    zero_pages += memory->zero_pages();
    if (memory->image_pages() == 0) {
      continue;
    }
    size_t i = std::find(images.begin(), images.end(), memory->image()) - images.begin();
    if (i == images.size()) {
      images.push_back(memory->image());
      shapes.emplace_back();
    }
    auto shape = std::find_if(shapes[i].begin(), shapes[i].end(), [&](const Shape& s) {
      return s.mapped == memory->mapped_image_pages();
    });
    if (shape == shapes[i].end()) {
      shape = shapes[i].insert(shape, Shape{memory->mapped_image_pages(), {}});
    }
    ++shape->dirtied[memory->dirtied_image_pages()];
  }
  // Sums equal contents, which arrive adjacent, and drops zero totals.
  std::pair<uint64_t, uint64_t> run = {kZeroPageContent, zero_pages};
  auto fold = [&](uint64_t content, uint64_t pages) {
    if (content != run.first) {
      if (run.second > 0) {
        sink(run.first, run.second);
      }
      run = {content, 0};
    }
    run.second += pages;
  };
  uint64_t walked = 0;
  if (images.size() == 1) {
    // One image's contents follow the zero page (the smallest id) in order.
    walked = WalkImageContents(*images[0], shapes[0], fold);
  } else {
    // Several images may hold the same content: collect and sort first.
    std::vector<std::pair<uint64_t, uint64_t>> held;
    for (size_t i = 0; i < images.size(); ++i) {
      walked += WalkImageContents(*images[i], shapes[i], [&](uint64_t content, uint64_t pages) {
        held.emplace_back(content, pages);
      });
    }
    std::sort(held.begin(), held.end());
    for (const auto& [content, pages] : held) {
      fold(content, pages);
    }
  }
  if (run.second > 0) {
    sink(run.first, run.second);
  }
  return walked;
}

}  // namespace nymix
